// Command e2e is sqlcheck's end-to-end benchmark. It builds sqlcheckd
// from the checkout's source, starts a fresh daemon for every run of
// every workload, and drives it over loopback from this one process on
// two connections. Every response is checked, every 64th check is
// compared with an in-process reference, and each run fails when its
// workload stops exercising the mechanism it exists for. It prints one
// `workload metric value unit` line per metric (the median over the
// set's runs) and, for a single workload, a final JSON result line.
//
//	go -C bench/e2e run . -seed 1 -runs 5 -out results/mine.json
//	go -C bench/e2e run . -workload cold-scan -seed 7 -trace 1
//	go -C bench/e2e run . -compare results/parent.json results/change.json
//	bash bench/e2e/run.sh --workload warm-api --seed 3 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and their layers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all, interleaved)")
		seed     = flag.Uint64("seed", 1, "input seed; run i of a set uses seed+i")
		seconds  = flag.Float64("seconds", 10, "measured window of each run, in seconds")
		trace    = flag.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload")
		out      = flag.String("out", "", "append the runs to this JSON results file")
		set      = flag.String("set", "", "set label for the runs written to -out")
		cmp      = flag.String("compare", "", "compare the runs of this `parent[#set]` file with the change file given as the argument")
		root     = flag.String("root", "", "checkout to build sqlcheckd from (default: the nearest directory above holding cmd/sqlcheckd)")
		work     = flag.String("work", "", "scratch directory for binaries, data and spans (default: <root>/.bench_build)")
	)
	flag.Parse()
	// The load comes from at most two threads, one per connection.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *cmp != "" {
		if flag.NArg() != 1 {
			fatal(errors.New("-compare needs the change file as its argument"))
		}
		worse, err := compare(os.Stdout, *cmp, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	workloads := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames))
		}
		workloads = []string{*workload}
	}
	if *runs < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("need -runs >= 1, -seconds > 0 and -trace 0 or 1"))
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fatal(err)
		}
		*root = r
	}
	defaultWork := *work == ""
	if defaultWork {
		*work = filepath.Join(*root, ".bench_build")
	}
	binDir := filepath.Join(*work, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		fatal(err)
	}
	if defaultWork {
		// The default scratch directory ignores itself, so git never
		// lists it.
		if err := os.WriteFile(filepath.Join(*work, ".gitignore"), []byte("*\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	bin, err := buildDaemon(*root, binDir)
	if err != nil {
		fatal(err)
	}

	var results []*runResult
	ok := true
	for i := range *runs {
		// Rotate the workload order so no workload always runs first.
		for j := range workloads {
			wl := workloads[(i+j)%len(workloads)]
			cfg := runConfig{
				workload: wl,
				seed:     *seed + uint64(i),
				window:   time.Duration(*seconds * float64(time.Second)),
				warmup:   3 * time.Second,
				trace:    *trace == 1,
				setups:   5,
				sizing:   true,
				bin:      bin,
				work:     *work,
			}
			start := time.Now()
			res := run(cfg)
			res.Set = *set
			results = append(results, res)
			ok = ok && res.Correct
			fmt.Fprintf(os.Stderr, "e2e: %s seed %d: correct=%t attempted=%d failed=%d (%.1fs)\n",
				wl, cfg.seed, res.Correct, res.Attempted, res.Failed, time.Since(start).Seconds())
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "e2e:   %s\n", p)
			}
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fatal(err)
		}
	}
	printMedians(os.Stdout, results, workloads, *trace == 1)
	if len(workloads) == 1 {
		printResultLine(os.Stdout, results, *trace == 1)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sqlcheckd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/sqlcheckd above the working directory; pass -root")
		}
		dir = parent
	}
}

// shown reports whether a run prints def: end-to-end metrics and
// daemon counters always, replay metrics only on traced runs.
func shown(def metricDef, workload string, traced bool) bool {
	return def.appliesTo(workload) && (!def.replay || traced)
}

// printMedians prints `workload metric value unit`, the set median,
// for every metric of every workload run.
func printMedians(w io.Writer, results []*runResult, workloads []string, traced bool) {
	for _, wl := range workloads {
		runs := byWorkload(results, wl)
		for _, def := range metricDefs {
			if !shown(def, wl, traced) {
				continue
			}
			if v, ok := values(runs, def.name); ok {
				fmt.Fprintf(w, "%s %s %s %s\n", wl, def.name, strconv.FormatFloat(median(v), 'g', -1, 64), def.unit)
			}
		}
		for _, rate := range ladderRates {
			for _, k := range []string{".p99_ms", ".late_ms"} {
				name := "step" + strconv.Itoa(int(rate)) + k
				if v, ok := values(runs, name); ok {
					fmt.Fprintf(w, "%s %s %s ms\n", wl, name, strconv.FormatFloat(median(v), 'g', -1, 64))
				}
			}
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints the single-workload result object: the listed
// end-to-end metrics, or with tracing the listed per-layer metrics,
// each the median over the runs.
func printResultLine(w io.Writer, results []*runResult, traced bool) {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	for _, def := range metricDefs {
		if !def.listed || (def.layer != "") != traced {
			continue
		}
		v, _ := values(results, def.name)
		line.Metrics[def.name] = metricValue{Value: median(v), Unit: def.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(raw))
}
