// Package experiments regenerates every table and figure of the
// paper's evaluation (§8) on the in-repo substrates. Each experiment
// returns a structured result with a text rendering; cmd/apbench
// prints them and bench_test.go wraps them as benchmarks. Absolute
// numbers differ from the paper (the substrate is this repository's
// engine, not PostgreSQL on the authors' hardware); the tracked claim
// per experiment is the *shape* — who wins and by roughly what factor
// (DESIGN.md §4 indexes the artifacts).
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// Measurement is one AP-vs-fixed timing comparison.
type Measurement struct {
	Label string
	// AP and Fixed are the execution times of the anti-pattern and
	// repaired designs: the median run (timeIt, TimePair), or the
	// median run of a destructive operation timed from fresh state
	// (timeOncePair).
	AP, Fixed time.Duration
	// PaperAP and PaperFixed record the paper's reported seconds for
	// reference (0 when the paper gives only a factor).
	PaperAP, PaperFixed float64
	// Note carries shape expectations (e.g. "fix should win >100x").
	Note string
}

// Factor returns AP time / fixed time (how much faster the fix is).
func (m Measurement) Factor() float64 {
	if m.Fixed <= 0 {
		return 0
	}
	return float64(m.AP) / float64(m.Fixed)
}

// Fprint renders measurements as an aligned table.
func Fprint(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%-38s %14s %14s %10s  %s\n", "experiment", "AP", "fixed", "speedup", "paper")
	for _, m := range ms {
		paper := ""
		if m.PaperAP > 0 && m.PaperFixed > 0 {
			paper = fmt.Sprintf("%.3fs/%.3fs (%.0fx)", m.PaperAP, m.PaperFixed, m.PaperAP/m.PaperFixed)
		} else if m.Note != "" {
			paper = m.Note
		}
		fmt.Fprintf(w, "%-38s %14s %14s %9.1fx  %s\n",
			m.Label, m.AP.Round(time.Microsecond), m.Fixed.Round(time.Microsecond), m.Factor(), paper)
	}
	fmt.Fprintln(w)
}

// timeIt runs f repeatedly and returns the median run. It runs one
// untimed warm-up first, then `runs` timed iterations. The paper
// reports the average of five runs, but a mean would let one run
// preempted on a loaded host decide the result (see TimePair).
func timeIt(runs int, f func()) time.Duration {
	if runs <= 0 {
		runs = 5
	}
	f() // warm-up
	ds := make([]time.Duration, runs)
	for i := range runs {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	return median(ds)
}

// TimePair measures two alternatives by interleaving their runs so
// that clock drift and frequency scaling hit both sides equally, and
// returns each side's median run. Both get one warm-up call. A mean
// would not do: a run of a few microseconds that is preempted or
// caught by a GC pause takes milliseconds, and on a loaded host one
// such run lands on one side only and moves its 300-run mean
// several-fold.
func TimePair(runs int, fa, fb func()) (da, db time.Duration) {
	if runs <= 0 {
		runs = 100
	}
	fa()
	fb()
	as := make([]time.Duration, runs)
	bs := make([]time.Duration, runs)
	for i := range runs {
		start := time.Now()
		fa()
		as[i] = time.Since(start)
		start = time.Now()
		fb()
		bs[i] = time.Since(start)
	}
	return median(as), median(bs)
}

// median returns the middle of ds (the upper middle for an even
// count), sorting ds in place.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// timeOncePair measures two destructive operations, each of which its
// setup must give a fresh state per call: it alternates a setup and a
// timed op for each side `runs` times, timing only the op, and
// returns each side's median run. As in TimePair, the interleaving
// lets a slow stretch of the host hit both sides, not the one that
// happens to run during it.
func timeOncePair(runs int, setupA, setupB func() func()) (da, db time.Duration) {
	if runs <= 0 {
		runs = 3
	}
	once := func(setup func() func()) time.Duration {
		op := setup()
		start := time.Now()
		op()
		return time.Since(start)
	}
	as := make([]time.Duration, runs)
	bs := make([]time.Duration, runs)
	for i := range runs {
		as[i] = once(setupA)
		bs[i] = once(setupB)
	}
	return median(as), median(bs)
}

// Scale selects experiment sizes: benchmarks default to Small so the
// suite stays fast; apbench uses Full for paper-shaped magnitudes.
type Scale int

// Scales.
const (
	Small Scale = iota
	Full
)
