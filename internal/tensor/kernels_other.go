//go:build !amd64

package tensor

// axpy computes y += s*x. It panics if len(y) < len(x).
func axpy(s float32, x, y []float32) { axpyGo(s, x, y) }

// dot returns the inner product of x and y. It panics if len(y) < len(x).
func dot(x, y []float32) float32 { return dotGo(x, y) }
