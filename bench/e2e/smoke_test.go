package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for about a second against a freshly
// built daemon, traced, and checks that every run is correct and that
// every metric the workload applies to is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a live daemon")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin, err := buildDaemon(root, work)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		res := run(runConfig{
			workload: wl, seed: 1, window: time.Second, warmup: 300 * time.Millisecond,
			trace: true, setups: 2, bin: bin, work: work,
		})
		if !res.Correct || res.Failed != 0 || res.Metrics["fail_frac"] != 0 {
			t.Errorf("%s: correct=%t failed=%d of %d: %v", wl, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		var out bytes.Buffer
		printMedians(&out, []*runResult{res}, []string{wl}, true)
		for _, def := range metricDefs {
			if !def.appliesTo(wl) {
				continue
			}
			prefix := fmt.Sprintf("%s %s ", wl, def.name)
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, prefix) && strings.HasSuffix(line, " "+def.unit) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no %q line with unit %s", wl, def.name, def.unit)
			}
		}
		out.Reset()
		printResultLine(&out, []*runResult{res}, true)
		var line struct {
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatalf("%s: result line: %v", wl, err)
		}
		for _, def := range metricDefs {
			if def.listed && def.layer != "" {
				if _, ok := line.Metrics[def.name]; !ok {
					t.Errorf("%s: result line lacks %s", wl, def.name)
				}
			}
		}
	}
}
