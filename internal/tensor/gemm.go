package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// Op selects whether a GEMM operand is used as-is or transposed.
type Op bool

const (
	// NoTrans uses the operand as stored.
	NoTrans Op = false
	// Trans uses the transpose of the operand.
	Trans Op = true
)

// gemmGrain is the minimum number of output rows per parallel chunk; small
// batches run serially.
const gemmGrain = 8

// Gemm computes C = alpha*op(A)*op(B) + beta*C, the workhorse of every layer
// forward and backward pass. Shapes after applying the ops must satisfy
// op(A): m×k, op(B): k×n, C: m×n; Gemm panics otherwise. C must not alias A
// or B. Output rows are split across workers; within a row the NN and TN
// cases accumulate scaled rows of B with axpy and the NT case takes dot
// products, so results do not depend on the worker count.
func Gemm(c *Matrix, alpha float32, a *Matrix, transA Op, b *Matrix, transB Op, beta float32) {
	m, ka := a.Rows, a.Cols
	if transA == Trans {
		m, ka = a.Cols, a.Rows
	}
	kb, n := b.Rows, b.Cols
	if transB == Trans {
		kb, n = b.Cols, b.Rows
	}
	if ka != kb {
		panic(fmt.Sprintf("tensor: Gemm inner dimension mismatch %d vs %d", ka, kb))
	}
	if c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("tensor: Gemm output shape %dx%d, want %dx%d", c.Rows, c.Cols, m, n))
	}
	if beta == 0 {
		c.Zero()
	} else if beta != 1 {
		Scale(c, beta)
	}
	if m == 0 || n == 0 || ka == 0 || alpha == 0 {
		return
	}
	switch {
	case transA == NoTrans && transB == NoTrans:
		gemmNN(c, alpha, a, b)
	case transA == Trans && transB == NoTrans:
		gemmTN(c, alpha, a, b)
	case transA == NoTrans && transB == Trans:
		gemmNT(c, alpha, a, b)
	default:
		gemmTT(c, alpha, a, b)
	}
}

// MatMul computes C = A*B, zeroing C first.
func MatMul(c, a, b *Matrix) { Gemm(c, 1, a, NoTrans, b, NoTrans, 0) }

// gemmNN: C += alpha * A*B. i-k-j loop order streams rows of B and C.
func gemmNN(c *Matrix, alpha float32, a, b *Matrix) {
	k, n := b.Rows, b.Cols
	parallel.For(0, c.Rows, gemmGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Data[i*n : (i+1)*n]
			ai := a.Data[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				s := alpha * ai[p]
				if s == 0 {
					continue
				}
				bp := b.Data[p*n : (p+1)*n]
				axpy(s, bp, ci)
			}
		}
	})
}

// gemmTN: C += alpha * Aᵀ*B where A is k×m. Used for weight gradients
// dW = Xᵀ·dY. Parallel over output rows so chunks never share C rows.
func gemmTN(c *Matrix, alpha float32, a, b *Matrix) {
	k := a.Rows
	mA := a.Cols
	n := b.Cols
	parallel.For(0, c.Rows, gemmGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				s := alpha * a.Data[p*mA+i]
				if s == 0 {
					continue
				}
				bp := b.Data[p*n : (p+1)*n]
				axpy(s, bp, ci)
			}
		}
	})
}

// gemmNT: C += alpha * A*Bᵀ where B is n×k. Used for input gradients
// dX = dY·Wᵀ. Each output element is a dot product of two rows.
func gemmNT(c *Matrix, alpha float32, a, b *Matrix) {
	k := a.Cols
	n := b.Rows
	parallel.For(0, c.Rows, gemmGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b.Data[j*k : (j+1)*k]
				ci[j] += alpha * dot(ai, bj)
			}
		}
	})
}

// gemmTT: C += alpha * Aᵀ*Bᵀ. Rare; kept for completeness of the kernel set.
func gemmTT(c *Matrix, alpha float32, a, b *Matrix) {
	k := a.Rows // op(A) is a.Cols × a.Rows
	n := b.Rows
	mA := a.Cols
	kB := b.Cols
	parallel.For(0, c.Rows, gemmGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b.Data[j*kB : (j+1)*kB]
				var sum float32
				for p := 0; p < k; p++ {
					sum += a.Data[p*mA+i] * bj[p]
				}
				ci[j] += alpha * sum
			}
		}
	})
}

// axpyGo computes y += s*x with 4-way unrolling. It is the pure-Go
// implementation of axpy and the reference the SIMD kernel must match bit
// for bit. It panics if len(y) < len(x).
func axpyGo(s float32, x, y []float32) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = y[n-1] // hoist the bounds check out of the unrolled loop
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += s * x[i]
		y[i+1] += s * x[i+1]
		y[i+2] += s * x[i+2]
		y[i+3] += s * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += s * x[i]
	}
}

// dotGo returns the inner product of x and the first len(x) elements of y
// in four interleaved partial sums. It is the pure-Go implementation of dot
// and the reference the SIMD kernel must match bit for bit. It panics if
// len(y) < len(x).
func dotGo(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}
