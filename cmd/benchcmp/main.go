// Command benchcmp compares two `go test -bench` outputs and fails
// when gated benchmarks regress — the repo's CI regression gate
// (DESIGN.md §4), in the spirit of benchstat but dependency-free so
// it runs from a bare checkout.
//
//	go test -bench 'CheckSQLParallel|RuleDispatch|ProfileParallel' \
//	    -count 5 -benchmem -run '^$' . > bench-current.txt
//	go run ./cmd/benchcmp -baseline bench-base.txt \
//	    -current bench-current.txt -max-regression 20
//
// Each benchmark's samples (one line per -count repetition) are
// reduced to their per-metric medians, which is robust to the odd
// noisy run. Three metrics gate: ns/op against -max-regression, and —
// when -benchmem output is present — B/op and allocs/op against
// -max-mem-regression, so an allocation regression fails CI even when
// wall time hides it behind machine noise. Custom metrics
// (profiles/s, speedup-x, …) are informational and never gated.
// Benchmarks named by -require must be present in the current output,
// so a gate cannot silently vanish by being renamed or skipped.
//
// -json <path> additionally writes the current run's per-benchmark
// unit medians as a JSON document — the machine-readable artifact CI
// uploads (bench-current.json) so perf history is diffable across PRs
// without re-parsing bench text. Each benchmark the baseline also ran
// carries the baseline's medians and a current/baseline ratio per
// metric: medians move with the host, but a ratio of two runs made on
// one host compares across PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gated maps each gated metric unit to the flag that bounds it; every
// other unit is carried through uncompared.
var gatedUnits = []string{"ns/op", "B/op", "allocs/op"}

// benchHeader matches the name and iteration count of one result
// line, e.g. "BenchmarkProfileParallel/serial-8  10  1234567 ns/op".
// The -8 GOMAXPROCS suffix is stripped so runs from machines with
// different core counts still line up by name.
var benchHeader = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// samples holds one benchmark's per-metric observations.
type samples map[string][]float64

// parse reads a bench output file into name -> unit -> sample values.
// Metrics are tokenized pairwise ("<value> <unit>"), matching the
// testing package's output format for built-in and custom metrics.
func parse(path string) (map[string]samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]samples)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchHeader.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			s := out[m[1]]
			if s == nil {
				s = make(samples)
				out[m[1]] = s
			}
			s[fields[i+1]] = append(s[fields[i+1]], v)
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// benchJSON is one benchmark's entry in the -json artifact: the
// median of every reported unit (built-in and custom) plus the sample
// count the medians were taken over and, for each unit the baseline
// also reported, the baseline's median and the current/baseline
// ratio (omitted where the baseline median is zero).
type benchJSON struct {
	Name     string             `json:"name"`
	Samples  int                `json:"samples"`
	Metrics  map[string]float64 `json:"metrics"`
	Baseline map[string]float64 `json:"baseline,omitempty"`
	Ratio    map[string]float64 `json:"ratio,omitempty"`
}

// writeJSON renders per-benchmark unit medians with their baseline
// medians and ratios, sorted by name so the artifact diffs cleanly
// between runs.
func writeJSON(path string, cur, base map[string]samples) error {
	out := make([]benchJSON, 0, len(cur))
	for name, s := range cur {
		e := benchJSON{Name: name, Metrics: make(map[string]float64, len(s)),
			Baseline: make(map[string]float64), Ratio: make(map[string]float64)}
		for unit, vals := range s {
			e.Metrics[unit] = median(vals)
			if len(vals) > e.Samples {
				e.Samples = len(vals)
			}
			if bs := base[name][unit]; len(bs) > 0 {
				b := median(bs)
				e.Baseline[unit] = b
				if b != 0 {
					e.Ratio[unit] = math.Round(e.Metrics[unit]/b*1e4) / 1e4
				}
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	raw, err := json.MarshalIndent(struct {
		Benchmarks []benchJSON `json:"benchmarks"`
	}{out}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	var (
		baselinePath = flag.String("baseline", "bench-base.txt", "baseline bench output (bench/base.sh writes it)")
		currentPath  = flag.String("current", "", "bench output to compare (required)")
		maxRegress   = flag.Float64("max-regression", 20, "fail when median ns/op regresses by more than this percent")
		maxMem       = flag.Float64("max-mem-regression", 25, "fail when median B/op or allocs/op regresses by more than this percent")
		require      = flag.String("require", "", "comma-separated substrings; each must match a current benchmark")
		jsonPath     = flag.String("json", "", "write the current run's per-benchmark unit medians, with the baseline's medians and ratios, to this file as JSON")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -current is required")
		os.Exit(2)
	}
	base, err := parse(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := parse(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: current: %v\n", err)
		os.Exit(2)
	}

	if *jsonPath != "" {
		// Emit before gating so the artifact exists even when the run
		// regresses — the failing run is the one worth inspecting.
		if err := writeJSON(*jsonPath, cur, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}

	failed := false
	for _, want := range strings.Split(*require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for name := range cur {
			if strings.Contains(name, want) {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("MISSING  %-52s required benchmark absent from current output\n", want)
			failed = true
		}
	}

	threshold := func(unit string) float64 {
		if unit == "ns/op" {
			return *maxRegress
		}
		return *maxMem
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		curSamples, ok := cur[name]
		if !ok {
			fmt.Printf("SKIP     %-52s not in current output\n", name)
			continue
		}
		for _, unit := range gatedUnits {
			bs, cs := base[name][unit], curSamples[unit]
			if len(bs) == 0 || len(cs) == 0 {
				continue // metric absent on one side (e.g. baseline predates -benchmem)
			}
			b, c := median(bs), median(cs)
			delta := 100 * (c - b) / b
			if b == 0 {
				delta = 0 // a zero-alloc baseline only "regresses" to itself
				if c > 0 {
					delta = 100
				}
			}
			status := "ok"
			if delta > threshold(unit) {
				status = "REGRESS"
				failed = true
			}
			fmt.Printf("%-8s %-52s %12.0f -> %12.0f %-9s %+6.1f%% (max %+.0f%%)\n",
				status, name, b, c, unit, delta, threshold(unit))
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			if ns := cur[name]["ns/op"]; len(ns) > 0 {
				fmt.Printf("NEW      %-52s %12.0f ns/op (no baseline)\n", name, median(ns))
			} else {
				fmt.Printf("NEW      %-52s (no baseline)\n", name)
			}
		}
	}
	if failed {
		fmt.Printf("\nbenchcmp: FAIL (ns/op threshold %+.0f%%, mem threshold %+.0f%%)\n", *maxRegress, *maxMem)
		os.Exit(1)
	}
	fmt.Printf("\nbenchcmp: ok (ns/op threshold %+.0f%%, mem threshold %+.0f%%)\n", *maxRegress, *maxMem)
}
