package main

// Results files and their comparison. A results file holds runs, each
// labeled with the set it belongs to; -out appends, so alternating
// parent and change runs can accumulate in two files. -compare pairs
// the two sides' runs by workload and seed and gives each (workload,
// metric) row a verdict by the rules of a paired comparison: a gain
// needs at least ten pairs, the change winning at least nine tenths of
// them, and a median gap wider than the parent's interquartile range.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"strings"
)

type hostInfo struct {
	CPUs int    `json:"cpus"`
	Go   string `json:"go"`
	CPU  string `json:"cpu,omitempty"`
}

type resultsFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

func currentHost() hostInfo {
	h := hostInfo{CPUs: runtime.NumCPU(), Go: runtime.Version()}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds runs to the results file at path, creating it.
func appendResults(path string, runs []*runResult) error {
	f, err := loadResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultsFile{Host: currentHost()}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// selectRuns loads "path" or "path#set": the file's runs, or only
// those of one set.
func selectRuns(arg string) ([]*runResult, error) {
	path, set, bySet := strings.Cut(arg, "#")
	f, err := loadResults(path)
	if err != nil {
		return nil, err
	}
	var out []*runResult
	for _, r := range f.Runs {
		if !bySet || r.Set == set {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", arg)
	}
	return out, nil
}

// Verdicts of a comparison row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs and minWinShare are the gain rule's thresholds.
const (
	minPairs    = 10
	minWinShare = 0.9
)

// verdict judges one (workload, metric) row. parent and change hold the
// two sides' run values; pairs[i] holds the indices of a parent run and
// the change run with the same seed.
func verdict(def metricDef, parent, change []float64, pairs [][2]int) (string, int) {
	lowerBetter := def.better == "lower"
	better := func(a, b float64) bool { return (lowerBetter && a < b) || (!lowerBetter && a > b) }
	wins := 0
	for _, p := range pairs {
		if better(change[p[1]], parent[p[0]]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	gain := cm - pm
	if lowerBetter {
		gain = -gain
	}
	if len(pairs) >= minPairs && float64(wins) >= minWinShare*float64(len(pairs)) && gain > iqr {
		return improved, wins
	}
	if def.bound == informational {
		if math.Abs(gain) <= iqr {
			return unchanged, wins
		}
		return unresolved, wins
	}
	// Where the parent's own runs spread wider than the bound, a gap of
	// that size is not evidence either way.
	if iqr > def.bound*math.Abs(pm) && !allBetter(change, parent, better) {
		return unresolved, wins
	}
	if -gain > def.bound*math.Abs(pm) {
		return regressed, wins
	}
	return unchanged, wins
}

// allBetter reports whether every change run beats every parent run.
func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

// compare prints one row per (workload, metric) the two sides share
// and reports whether any bounded metric regressed.
func compare(w io.Writer, parentArg, changeArg string) (bool, error) {
	parent, err := selectRuns(parentArg)
	if err != nil {
		return false, err
	}
	change, err := selectRuns(changeArg)
	if err != nil {
		return false, err
	}
	anyRegressed := false
	fmt.Fprintf(w, "%-12s %-32s %-6s %-34s %-34s %-7s %s\n", "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range workloadNames {
		ps, cs := byWorkload(parent, wl), byWorkload(change, wl)
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		pairs := pairBySeed(ps, cs)
		for _, def := range metricDefs {
			pv, pok := values(ps, def.name)
			cv, cok := values(cs, def.name)
			if !pok || !cok {
				continue
			}
			v, wins := verdict(def, pv, cv, pairs)
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-12s %-32s %-6s %-34s %-34s %-7s %s\n", wl, def.name, def.unit,
				spread(pv), spread(cv), fmt.Sprintf("%d/%d", wins, len(pairs)), v)
		}
	}
	return anyRegressed, nil
}

func byWorkload(runs []*runResult, wl string) []*runResult {
	var out []*runResult
	for _, r := range runs {
		if r.Workload == wl {
			out = append(out, r)
		}
	}
	return out
}

// values collects a metric across runs; false when any run lacks it.
func values(runs []*runResult, name string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// pairBySeed matches each parent run with the next unmatched change run
// of the same seed, so both sides of a pair saw identical inputs.
func pairBySeed(parent, change []*runResult) [][2]int {
	used := make([]bool, len(change))
	var pairs [][2]int
	for i, p := range parent {
		for j, c := range change {
			if !used[j] && c.Seed == p.Seed {
				used[j] = true
				pairs = append(pairs, [2]int{i, j})
				break
			}
		}
	}
	return pairs
}

func spread(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}
