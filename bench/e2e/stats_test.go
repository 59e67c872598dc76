package main

import (
	"testing"
	"time"
)

func seqFloats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{10, 0.5, 5, 5},
		{1000, 0.99, 990, 10}, // the smallest window whose p99 is reportable
		{999, 0.99, 990, 9},   // one sample short: only 9 beyond
		{2000, 0.99, 1980, 20},
		{1, 0.99, 1, 0},
	} {
		got, beyond := nearestRank(seqFloats(tc.n), tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("nearestRank(1..%d, %v) = %v, %d beyond; want %v, %d", tc.n, tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := nearestRank(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("nearestRank(empty) = %v, %d", v, beyond)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{seqFloats(10), 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 5}, 0, 6},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestWindowMedian(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	// Windows of one second hold 2, 1 and 3 events; the 3.2 s event is
	// past the last whole window.
	at := []time.Duration{ms(100), ms(200), ms(1500), ms(2100), ms(2200), ms(2300), ms(3200)}
	ones := []float64{1, 1, 1, 1, 1, 1, 1}
	if got := windowMedian(at, ones, 3*time.Second+ms(500), time.Second); got != 2 {
		t.Errorf("windowMedian = %v, want 2", got)
	}
	// A stall that empties one window of three leaves the median at
	// the other windows' rate.
	stalled := []time.Duration{ms(100), ms(200), ms(2100), ms(2200)}
	if got := windowMedian(stalled, ones[:4], 3*time.Second, time.Second); got != 2 {
		t.Errorf("windowMedian with a stalled window = %v, want 2", got)
	}
	// Weights sum within a window; a span under one width is one window.
	if got := windowMedian([]time.Duration{ms(10), ms(20)}, []float64{3, 4}, ms(500), time.Second); got != 14 {
		t.Errorf("windowMedian over a half-second span = %v, want 14/s", got)
	}
}

func TestMaxRateUnderSLO(t *testing.T) {
	ok := func(rate float64) ladderStep {
		return ladderStep{Rate: rate, P99ms: 4, Beyond: 20, LateEnd: time.Millisecond}
	}
	for _, tc := range []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass", []ladderStep{ok(500), ok(1000), ok(1500)}, 1500},
		{"p99 over the limit", []ladderStep{ok(500), ok(1000), {Rate: 1500, P99ms: 11, Beyond: 20}}, 1000},
		{"a failure", []ladderStep{ok(500), {Rate: 1000, P99ms: 1, Beyond: 20, Failed: 1}}, 500},
		{"generator fell behind", []ladderStep{ok(500), {Rate: 1000, P99ms: 1, Beyond: 20, LateEnd: 100 * time.Millisecond}}, 500},
		{"too few samples beyond p99", []ladderStep{{Rate: 500, P99ms: 1, Beyond: 9}, ok(1000)}, 0},
		{"a later pass does not count", []ladderStep{ok(500), {Rate: 1000, P99ms: 50, Beyond: 20}, ok(1500)}, 500},
	} {
		if got := maxRateUnderSLO(tc.steps); got != tc.want {
			t.Errorf("%s: maxRateUnderSLO = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{name: "check_p50_ms", better: "lower", bound: 0.10}
	info := metricDef{name: "rank.rank_us", better: "lower", bound: informational}
	pairs := func(n int) [][2]int {
		out := make([][2]int, n)
		for i := range out {
			out[i] = [2]int{i, i}
		}
		return out
	}
	fill := func(n int, base, step float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base + step*float64(i%3)
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		pairs          int
		want           string
	}{
		{"clear gain", lat, fill(10, 10, 0.1), fill(10, 8, 0.1), 10, improved},
		{"gain on too few pairs", lat, fill(9, 10, 0.1), fill(9, 8, 0.1), 9, unchanged},
		{"within the bound", lat, fill(10, 10, 0.1), fill(10, 10.5, 0.1), 10, unchanged},
		{"worse than the bound", lat, fill(10, 10, 0.1), fill(10, 11.5, 0.1), 10, regressed},
		{"spread wider than the bound", lat, fill(10, 10, 2), fill(10, 10.2, 2), 10, unresolved},
		{"worse, but by less than the spread", lat, fill(10, 10, 2), fill(10, 11.5, 2), 10, unresolved},
		{"informational, no move", info, fill(10, 10, 1), fill(10, 10.2, 1), 10, unchanged},
		{"informational, moved beyond its spread", info, fill(10, 10, 0.1), fill(10, 13, 0.1), 10, unresolved},
	} {
		if got, _ := verdict(tc.def, tc.parent, tc.change, pairs(tc.pairs)); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	// A higher-is-better metric gains upward.
	tput := metricDef{name: "checks_per_s", better: "higher", bound: 0.10}
	if got, wins := verdict(tput, fill(10, 100, 1), fill(10, 120, 1), pairs(10)); got != improved || wins != 10 {
		t.Errorf("throughput gain: verdict = %s with %d wins, want improved with 10", got, wins)
	}
}
