package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and false when fewer than minTail samples lie beyond it. xs need
// not be sorted; +Inf entries (failed operations) sort last and count as
// over any limit.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle of xs (mean of the two middles for even
// length); the tail rule does not apply to it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// rung is one fixed offered rate of the interactive ladder and what was
// measured at it.
type rung struct {
	OfferedRPS  float64
	AchievedRPS float64   // successful requests per second of the rung's schedule
	Latencies   []float64 // ms from due time; +Inf for failed requests
	LagMs       []float64 // how late the generator sent each request
	Failed      int
}

// Ladder rule: a rung passes when its p99 (failed requests count as over
// the limit) is within p99LimitMs, nothing failed, and at least
// minAchieved of the offered load completed.
const (
	p99LimitMs  = 25.0
	minAchieved = 0.95
)

// passes applies the ladder rule. A rung too short to resolve a p99
// cannot show that it meets the limit, so it fails.
func (r rung) passes() bool {
	p99, ok := percentile(r.Latencies, 0.99)
	return ok && p99 <= p99LimitMs && r.Failed == 0 && r.AchievedRPS >= minAchieved*r.OfferedRPS
}

// maxPassingRPS returns the highest achieved rate among the ladder's
// passing rungs, in whatever order they ran, or 0 when none passes.
func maxPassingRPS(ladder []rung) float64 {
	best := 0.0
	for _, r := range ladder {
		if r.passes() && r.AchievedRPS > best {
			best = r.AchievedRPS
		}
	}
	return best
}

// interval is a half-open time range [Start, End).
type interval struct{ Start, End time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another or stick out of the parent;
// only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}
