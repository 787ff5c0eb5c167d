package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the values whose arithmetic a reordered or fused kernel
// would get wrong first: signed zeros, infinities, NaN, subnormals and
// numbers whose products overflow or fall into the subnormal range.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), // smallest and largest-magnitude subnormals
	math.MaxFloat32, -math.MaxFloat32,
	1e-20, -3e-25,
}

// sameBits reports whether a and b are the same float32, counting any NaN
// equal to any other NaN.
func sameBits(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// kernelVector returns n values: Gaussian ones, every one scaled by scale,
// with roughly a share special of them drawn from specials instead.
func kernelVector(rng *rand.Rand, n int, scale float32, special float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Float64() < special {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = scale * float32(rng.NormFloat64())
		}
	}
	return v
}

// kernelCases calls fn with operand pairs of every length 0–70 (covering
// the 16-, 4- and 1-element loops) at every start offset 0–3 of each
// operand (so packed loads are unaligned), under four value regimes.
// Each call gets a description of its case for failure messages.
func kernelCases(fn func(desc string, x, y []float32)) {
	rng := rand.New(rand.NewSource(14))
	regimes := []struct {
		name    string
		scale   float32
		special float64
	}{
		{"finite", 1, 0},
		{"subnormal-products", 1e-20, 0},
		{"sparse-specials", 1, 1.0 / 32},
		{"dense-specials", 1, 0.5},
	}
	for _, r := range regimes {
		for n := 0; n <= 70; n++ {
			for xOff := 0; xOff < 4; xOff++ {
				for yOff := 0; yOff < 4; yOff++ {
					x := kernelVector(rng, xOff+n, r.scale, r.special)[xOff:]
					y := kernelVector(rng, yOff+n+3, r.scale, r.special)[yOff:]
					fn(fmt.Sprintf("%s n=%d x+%d y+%d", r.name, n, xOff, yOff), x, y)
				}
			}
		}
	}
}

func TestAxpyMatchesGoBitwise(t *testing.T) {
	scalars := append([]float32{1.5, -0.7, 1e-30}, specials...)
	kernelCases(func(desc string, x, y []float32) {
		for _, s := range scalars {
			got := append([]float32(nil), y...)
			want := append([]float32(nil), y...)
			xCopy := append([]float32(nil), x...)
			axpy(s, x, got)
			axpyGo(s, x, want)
			for i := range want {
				// i >= len(x) checks that y's tail is left alone.
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s s=%g: y[%d] = %g (%#08x), Go reference %g (%#08x)",
						desc, s, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
			for i := range x {
				if math.Float32bits(x[i]) != math.Float32bits(xCopy[i]) {
					t.Fatalf("%s s=%g: axpy wrote x[%d]", desc, s, i)
				}
			}
		}
	})
}

func TestDotMatchesGoBitwise(t *testing.T) {
	kernelCases(func(desc string, x, y []float32) {
		// y is longer than x; dot reads only its first len(x) elements.
		if got, want := dot(x, y), dotGo(x, y); !sameBits(got, want) {
			t.Fatalf("%s: dot = %g (%#08x), Go reference %g (%#08x)",
				desc, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	})
}

func TestKernelsPanicOnShortY(t *testing.T) {
	for _, n := range []int{1, 4, 5, 16, 17} {
		x, y := make([]float32, n), make([]float32, n-1)
		for name, call := range map[string]func(){
			"axpy": func() { axpy(1, x, y) },
			"dot":  func() { dot(x, y) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with len(x)=%d, len(y)=%d did not panic", name, n, n-1)
					}
				}()
				call()
			}()
		}
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{128, 399} {
		x, y := kernelVector(rand.New(rand.NewSource(1)), n, 1, 0), make([]float32, n)
		for _, k := range []struct {
			name string
			fn   func(float32, []float32, []float32)
		}{{"axpy", axpy}, {"axpyGo", axpyGo}} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(1e-3, x, y)
				}
				reportGFLOPS(b, 2*n)
			})
		}
	}
}

// dotSink keeps the compiler from discarding BenchmarkDot's calls.
var dotSink float32

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{128, 399} {
		rng := rand.New(rand.NewSource(2))
		x, y := kernelVector(rng, n, 1, 0), kernelVector(rng, n, 1, 0)
		for _, k := range []struct {
			name string
			fn   func([]float32, []float32) float32
		}{{"dot", dot}, {"dotGo", dotGo}} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dotSink += k.fn(x, y)
				}
				reportGFLOPS(b, 2*n)
			})
		}
	}
}
