package tensor

// axpySSE adds s*x to the first len(x) elements of y. It is written in
// kernels_amd64.s and checks no bounds.
//
//go:noescape
func axpySSE(s float32, x, y []float32)

// dotSSE returns the inner product of x and the first len(x) elements of
// y. It is written in kernels_amd64.s and checks no bounds.
//
//go:noescape
func dotSSE(x, y []float32) float32

// axpy computes y += s*x, bit-identical to axpyGo. It panics if
// len(y) < len(x).
func axpy(s float32, x, y []float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1] // the assembly reads and writes y unchecked
	axpySSE(s, x, y)
}

// dot returns the inner product of x and y, bit-identical to dotGo. It
// panics if len(y) < len(x).
func dot(x, y []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	_ = y[len(x)-1] // the assembly reads y unchecked
	return dotSSE(x, y)
}
