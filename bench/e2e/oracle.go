package main

// The correctness oracle. A kept response must equal, after decoding
// and re-encoding, the report that a fresh in-process checker computes
// from the same request bytes with memoization and coalescing off. On
// tenant-data the reference database is rebuilt from the tenant's
// fixture plus the writes the daemon acknowledged before the check, in
// order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"sqlcheck"
)

// sample is a kept check response and the number of writes the daemon
// had acknowledged when the check was sent.
type sample struct {
	req   *request
	resp  []byte
	acked int
}

type reference struct {
	seed  uint64
	acked []int // write-stream indices the daemon acknowledged, in order
	ck    *sqlcheck.Checker
	// encoded caches the reference encoding of database-free scripts.
	encoded map[string][]byte
	tenants map[int]*tenantState
}

// tenantState is a reference tenant database with the acknowledged
// writes acked[:applied] replayed onto it (those aimed at the tenant).
type tenantState struct {
	db      *sqlcheck.Database
	applied int
}

func newReference(seed uint64, acked []int) *reference {
	return &reference{
		seed:    seed,
		acked:   acked,
		ck:      sqlcheck.New(sqlcheck.Options{Concurrency: 1, NoCoalesce: true}),
		encoded: map[string][]byte{},
		tenants: map[int]*tenantState{},
	}
}

// verifyAll checks every sample and returns one error per mismatch.
func (ref *reference) verifyAll(samples []sample) []error {
	// Tenant states only move forward, so replay in acknowledgement order.
	slices.SortStableFunc(samples, func(a, b sample) int { return a.acked - b.acked })
	var errs []error
	for _, s := range samples {
		if err := ref.verify(s); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (ref *reference) verify(s sample) error {
	var body struct {
		Query     string   `json:"query"`
		Queries   []string `json:"queries"`
		Workloads []struct {
			SQL string `json:"sql"`
			DB  string `json:"db"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(s.req.body, &body); err != nil {
		return fmt.Errorf("oracle: request body: %w", err)
	}
	var got []*sqlcheck.Report
	if s.req.batch {
		var br struct {
			Reports []*sqlcheck.Report `json:"reports"`
		}
		if err := json.Unmarshal(s.resp, &br); err != nil {
			return fmt.Errorf("oracle: response: %w", err)
		}
		got = br.Reports
	} else {
		var rep sqlcheck.Report
		if err := json.Unmarshal(s.resp, &rep); err != nil {
			return fmt.Errorf("oracle: response: %w", err)
		}
		got = []*sqlcheck.Report{&rep}
	}

	var want [][]byte
	switch {
	case body.Query != "":
		want = append(want, ref.scriptReport(body.Query))
	case len(body.Queries) > 0:
		for _, q := range body.Queries {
			want = append(want, ref.scriptReport(q))
		}
	default:
		db, err := ref.tenant(s.req.tenant, s.acked)
		if err != nil {
			return err
		}
		for _, w := range body.Workloads {
			want = append(want, ref.report(sqlcheck.Workload{SQL: w.SQL, DB: db, NoReportCache: true}))
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d reports, want %d", len(got), len(want))
	}
	for i := range got {
		enc, err := json.Marshal(got[i])
		if err != nil {
			return fmt.Errorf("oracle: re-encoding report: %w", err)
		}
		if !bytes.Equal(enc, want[i]) {
			return fmt.Errorf("oracle: report %d of a %s %s request differs from the reference at byte %d",
				i, s.req.class, s.req.kind, firstDiff(enc, want[i]))
		}
	}
	return nil
}

// scriptReport is the reference encoding of a database-free script.
func (ref *reference) scriptReport(sql string) []byte {
	if enc, ok := ref.encoded[sql]; ok {
		return enc
	}
	enc := ref.report(sqlcheck.Workload{SQL: sql, NoReportCache: true})
	ref.encoded[sql] = enc
	return enc
}

func (ref *reference) report(w sqlcheck.Workload) []byte {
	reps, err := ref.ck.CheckWorkloads(context.Background(), []sqlcheck.Workload{w})
	if err != nil {
		return []byte("reference error: " + err.Error())
	}
	return mustJSON(reps[0])
}

// tenant returns reference tenant k with the first prefix acknowledged
// writes applied.
func (ref *reference) tenant(k, prefix int) (*sqlcheck.Database, error) {
	t := ref.tenants[k]
	if t == nil {
		db := sqlcheck.NewDatabase(tenantName(k))
		if err := db.ExecScript(tenantFixture(ref.seed, k)); err != nil {
			return nil, fmt.Errorf("oracle: tenant %d fixture: %w", k, err)
		}
		t = &tenantState{db: db}
		ref.tenants[k] = t
	}
	for ; t.applied < prefix; t.applied++ {
		if tk, sql := tenantWrite(ref.seed, ref.acked[t.applied]); tk == k {
			if err := t.db.ExecScript(sql); err != nil {
				return nil, fmt.Errorf("oracle: tenant %d write %d: %w", k, ref.acked[t.applied], err)
			}
		}
	}
	return t.db, nil
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
