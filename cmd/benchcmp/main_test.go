package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriteJSONRatios pins the ledger entry: current medians, plus the
// baseline's medians and current/baseline ratios for every unit the
// baseline also reported.
func TestWriteJSONRatios(t *testing.T) {
	cur := map[string]samples{
		"BenchmarkA": {"ns/op": {90, 100, 300}, "B/op": {50}, "allocs/op": {0}},
		"BenchmarkB": {"ns/op": {7}},
	}
	base := map[string]samples{
		"BenchmarkA": {"ns/op": {200, 400}, "B/op": {3}, "allocs/op": {0}},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeJSON(path, cur, base); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Benchmarks []benchJSON }
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := []benchJSON{
		{
			Name: "BenchmarkA", Samples: 3,
			Metrics:  map[string]float64{"ns/op": 100, "B/op": 50, "allocs/op": 0},
			Baseline: map[string]float64{"ns/op": 300, "B/op": 3, "allocs/op": 0},
			Ratio:    map[string]float64{"ns/op": 0.3333, "B/op": 16.6667},
		},
		{Name: "BenchmarkB", Samples: 1, Metrics: map[string]float64{"ns/op": 7}},
	}
	if !reflect.DeepEqual(got.Benchmarks, want) {
		t.Fatalf("ledger entries:\n got %+v\nwant %+v", got.Benchmarks, want)
	}
}
