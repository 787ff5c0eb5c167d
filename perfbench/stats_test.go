package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // rank 990, 10 beyond
		{999, 0.99, 0, false},   // rank 990, 9 beyond
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
		{1000, 0, 0, false},
		{1000, 1, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileCountsFailuresAsSlowest(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if got, ok := percentile(xs, 0.99); !ok || !math.IsInf(got, 1) {
		t.Fatalf("p99 with 11 failures = %v, %v; want +Inf", got, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

// steady returns a rung of n requests all taking ms.
func steady(offered, achieved float64, n int, ms float64) rung {
	r := rung{OfferedRPS: offered, AchievedRPS: achieved}
	for i := 0; i < n; i++ {
		r.Latencies = append(r.Latencies, ms)
	}
	return r
}

func TestLadderRule(t *testing.T) {
	ok := steady(100, 99, 1000, 5)
	if !ok.passes() {
		t.Fatal("fast, complete rung should pass")
	}
	slow := steady(100, 99, 1000, 5)
	for i := 0; i < 11; i++ {
		slow.Latencies[i] = p99LimitMs + 1
	}
	if slow.passes() {
		t.Error("rung with p99 over the limit passed")
	}
	edge := steady(100, 99, 1000, 5)
	for i := 0; i < 10; i++ {
		edge.Latencies[i] = p99LimitMs + 1 // only beyond p99
	}
	if !edge.passes() {
		t.Error("rung with 10 slow requests (all beyond p99) should pass")
	}
	failed := steady(100, 99, 1000, 5)
	failed.Latencies[0] = math.Inf(1)
	failed.Failed = 1
	if failed.passes() {
		t.Error("rung with a failed request passed")
	}
	behind := steady(100, 94.9, 1000, 5)
	if behind.passes() {
		t.Error("rung achieving under 95% of its offered load passed")
	}
	if !steady(100, 95, 1000, 5).passes() {
		t.Error("rung achieving exactly 95% should pass")
	}
	if steady(100, 99, 999, 5).passes() {
		t.Error("rung too short to resolve a p99 passed")
	}

	ladder := []rung{steady(100, 100, 1000, 5), steady(200, 199, 1000, 5), behind, steady(400, 398, 1000, 5), steady(500, 300, 1000, 90)}
	if got := maxPassingRPS(ladder); got != 398 {
		t.Errorf("maxPassingRPS = %v, want the highest passing rung's achieved 398", got)
	}
	if got := maxPassingRPS([]rung{behind}); got != 0 {
		t.Errorf("maxPassingRPS with no passing rung = %v, want 0", got)
	}
}

func iv(a, b int) interval {
	return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 10), nil, 10 * ms},
		{"disjoint", iv(0, 10), []interval{iv(1, 3), iv(5, 6)}, 7 * ms},
		{"overlapping counted once", iv(0, 10), []interval{iv(1, 5), iv(3, 7)}, 4 * ms},
		{"nested counted once", iv(0, 10), []interval{iv(1, 9), iv(2, 3)}, 2 * ms},
		{"unsorted", iv(0, 10), []interval{iv(6, 8), iv(1, 2)}, 7 * ms},
		{"clipped to parent", iv(0, 10), []interval{iv(-5, 2), iv(8, 20)}, 6 * ms},
		{"outside parent", iv(0, 10), []interval{iv(20, 30)}, 10 * ms},
		{"touching merge", iv(0, 10), []interval{iv(2, 4), iv(4, 6)}, 6 * ms},
		{"fully covered", iv(0, 10), []interval{iv(0, 10)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}
