package main

import (
	"math"
	"slices"
	"time"
)

// nearestRank returns the q-quantile of sorted (ascending) by the
// nearest-rank method, and how many samples lie beyond it. A
// percentile is reportable only with at least ten samples beyond it,
// so p99 needs 1000 samples.
func nearestRank(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps q*n from rounding up past an exact rank
	// (0.99*1000 is 990.0000000000001 in floating point).
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// median is the middle value, or the mean of the two middle values.
func median(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the same
// "exclusive" method as Python's statistics.quantiles(values, n=4).
// With fewer than two values both quartiles equal the only value.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(values))
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := max(1, min(i*m/n, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// windowMedian splits [0, span) into whole windows of width (at least
// one) and returns the median over windows of the summed weight of the
// events completing in each, per second. A stall confined to a minority
// of the windows moves those windows' sums, not the median.
func windowMedian(at []time.Duration, weight []float64, span, width time.Duration) float64 {
	n := max(1, int(span/width))
	if span < width {
		width = span
	}
	sums := make([]float64, n)
	for i, t := range at {
		if w := int(t / width); w < n {
			sums[w] += weight[i]
		}
	}
	return median(sums) * float64(time.Second) / float64(width)
}

// ladderStep summarizes one open-loop rate step.
type ladderStep struct {
	Rate    float64
	P99ms   float64
	Beyond  int
	Failed  int
	LateEnd time.Duration // generator lateness at the step's last send
}

// Open-loop service-level objective.
const (
	sloP99ms   = 10.0
	sloMaxLate = 100 * time.Millisecond
)

// maxRateUnderSLO is the highest ladder rate such that it and every
// lower step met the objective: p99 within the limit with enough
// samples beyond it, no failures, and a generator less than sloMaxLate
// behind schedule when the step ended. Zero when the first step fails.
func maxRateUnderSLO(steps []ladderStep) float64 {
	best := 0.0
	for _, s := range steps {
		if s.Failed > 0 || s.Beyond < minBeyond || s.P99ms > sloP99ms || s.LateEnd >= sloMaxLate {
			break
		}
		best = s.Rate
	}
	return best
}
