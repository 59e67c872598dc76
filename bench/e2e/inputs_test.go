package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"
)

// coldScripts decodes the scripts of cold-scan requests [0, n).
func coldScripts(t *testing.T, seed uint64, n int) []string {
	t.Helper()
	var out []string
	for i := range n {
		var body struct {
			Queries []string `json:"queries"`
		}
		if err := json.Unmarshal(coldScanRequest(seed, i).body, &body); err != nil {
			t.Fatal(err)
		}
		out = append(out, body.Queries...)
	}
	return out
}

func TestInputsDeterministic(t *testing.T) {
	same := func(what string, a, b []*request) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d requests", what, len(a), len(b))
		}
		for i := range a {
			if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) || !slices.Equal(a[i].stmts, b[i].stmts) {
				t.Fatalf("%s: request %d differs between two renderings of one seed", what, i)
			}
		}
	}
	same("warm", warmRequests(7), warmRequests(7))
	same("tenant checks", tenantCheckRequests(7), tenantCheckRequests(7))
	var c1, c2, w1, w2 []*request
	for i := range 20 {
		c1, c2 = append(c1, coldScanRequest(7, i)), append(c2, coldScanRequest(7, i))
		w1, w2 = append(w1, writeRequest(7, i)), append(w2, writeRequest(7, i))
	}
	same("cold", c1, c2)
	same("writes", w1, w2)
	if tenantFixture(7, 3) != tenantFixture(7, 3) {
		t.Fatal("tenant fixture differs between two renderings of one seed")
	}
	a1 := arrivals(7, streamArrivals, streamFresh, ladderRates, 250*time.Millisecond, warmRequests(7))
	a2 := arrivals(7, streamArrivals, streamFresh, ladderRates, 250*time.Millisecond, warmRequests(7))
	if len(a1) != len(a2) {
		t.Fatalf("arrivals: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].due != a2[i].due || !bytes.Equal(a1[i].req.body, a2[i].req.body) {
			t.Fatalf("arrival %d differs between two renderings of one seed", i)
		}
	}
	if warm := warmRequests(8); bytes.Equal(warm[0].body, warmRequests(7)[0].body) {
		t.Error("seeds 7 and 8 render the same first warm script")
	}
}

func TestColdScriptsNeverRepeat(t *testing.T) {
	seen := map[string]uint64{}
	for _, seed := range []uint64{1, 2} {
		for _, s := range coldScripts(t, seed, 200) {
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed %d repeats a cold script first seen under seed %d", seed, prev)
			}
			seen[s] = seed
		}
	}
	// Mixed-open's fresh scripts come from streams of their own.
	for _, a := range arrivals(1, streamArrivals, streamFresh, ladderRates, 250*time.Millisecond, warmRequests(1)) {
		if a.req.class == classWarm {
			continue
		}
		var body struct {
			Query   string   `json:"query"`
			Queries []string `json:"queries"`
		}
		if err := json.Unmarshal(a.req.body, &body); err != nil {
			t.Fatal(err)
		}
		if _, ok := seen[body.Query]; ok {
			t.Fatal("a mixed-open cold script repeats a cold-scan script")
		}
		for _, q := range body.Queries {
			if _, ok := seen[q]; ok {
				t.Fatal("a mixed-open batch script repeats a cold-scan script")
			}
		}
	}
}

func TestTrafficShape(t *testing.T) {
	for _, r := range warmRequests(1) {
		if r.stmts[0] < 1 || r.stmts[0] > warmMaxStmts {
			t.Errorf("warm script of %d statements", r.stmts[0])
		}
	}
	for i := range 50 {
		r := coldScanRequest(1, i)
		if len(r.stmts) != coldPerRequest {
			t.Fatalf("cold request of %d scripts", len(r.stmts))
		}
		for _, n := range r.stmts {
			if n < coldMinStmts || n > coldMaxStmts {
				t.Errorf("cold script of %d statements", n)
			}
		}
	}
	if n := appScript(1).stmts; n < 4 || n > 6 {
		t.Errorf("app script of %d statements", n)
	}
	arr := arrivals(1, streamArrivals, streamFresh, ladderRates, 2*time.Second, warmRequests(1))
	counts := map[string]int{}
	perStep := make([]int, len(ladderRates))
	for _, a := range arr {
		counts[a.req.class]++
		perStep[a.step]++
	}
	for si, rate := range ladderRates {
		if want := 2 * rate; float64(perStep[si]) < 0.9*want || float64(perStep[si]) > 1.1*want {
			t.Errorf("step %d: %d arrivals, want about %v", si, perStep[si], want)
		}
	}
	if share := float64(counts[classWarm]) / float64(len(arr)); share < 0.65 || share > 0.75 {
		t.Errorf("warm share %.3f, want about 0.7", share)
	}
	// Writes: an INSERT never reuses a row id of its table.
	ids := map[string]bool{}
	for i := range 500 {
		_, sql := tenantWrite(1, i)
		var table string
		var id int
		if n, _ := fmt.Sscanf(sql, "INSERT INTO %s VALUES (%d,", &table, &id); n != 2 {
			continue
		}
		key := fmt.Sprint(table, id)
		if id < tenantRows || ids[key] {
			t.Fatalf("write %d inserts id %d into %s, already used", i, id, table)
		}
		ids[key] = true
	}
}

// TestWritesPaced checks that tenant-data sends its writes on conn 0
// at writeRate however fast the connections draw requests, in stream
// order, and none on conn 1.
func TestWritesPaced(t *testing.T) {
	inp := buildInputs(runConfig{workload: wlTenant, seed: 1, window: time.Second})
	const d = 300 * time.Millisecond
	start := time.Now()
	var writes []int
	for time.Since(start) < d {
		if r := inp.next(0); r.kind == kindWrite {
			writes = append(writes, r.write)
		}
		if inp.next(1).kind == kindWrite {
			t.Fatal("conn 1 drew a write")
		}
	}
	// Writes 0..want-1 fall due within d; write want is due at d itself
	// and may be drawn by a call that started just before.
	want := int(int64(d) * writeRate / int64(time.Second))
	if n := len(writes); n < want || n > want+1 {
		t.Errorf("%d writes in %v, want %d", n, d, want)
	}
	for i, w := range writes {
		if w != i {
			t.Fatalf("write %d is stream index %d", i, w)
		}
	}
}
