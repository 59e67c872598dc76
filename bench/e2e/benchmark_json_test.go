package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json
// in step with the metric catalog: its workloads are the workloads, its
// end-to-end and per-layer lists are exactly the listed metrics, with
// the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, catalog %v", names, workloadNames)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var wantE2E, wantLayer []metric
	for _, d := range metricDefs {
		if !d.listed {
			continue
		}
		if !valid.MatchString(d.name) || !validUnit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: invalid name or unit", d.name, d.unit)
		}
		if d.only != nil {
			t.Errorf("listed metric %s applies to only some workloads", d.name)
		}
		m := metric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.layer == "" {
			bound := d.bound
			m.Bound = &bound
			wantE2E = append(wantE2E, m)
		} else {
			wantLayer = append(wantLayer, m)
		}
	}
	eq := func(a, b metric) bool {
		return a.Name == b.Name && a.Unit == b.Unit && a.Better == b.Better &&
			(a.Bound == nil) == (b.Bound == nil) && (a.Bound == nil || *a.Bound == *b.Bound)
	}
	if !slices.EqualFunc(b.EndToEnd, wantE2E, eq) {
		t.Errorf("BENCHMARK.json end_to_end differs from the listed end-to-end metrics")
	}
	if !slices.EqualFunc(b.PerLayer, wantLayer, eq) {
		t.Errorf("BENCHMARK.json per_layer differs from the listed per-layer metrics")
	}
	for _, m := range b.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	if !slices.Equal(b.Paths, []string{"bench/e2e"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}
