package main

// BenchmarkDaemonServe times the daemon's serving fast path end to
// end: HTTP decode, report-cache hit, pooled JSON encode. It is the
// gate for the pooled response buffers — the warm loop's allocs/op is
// dominated by serving overhead (the analysis itself is a cache
// probe), so a return to per-request encoder garbage shows up
// directly.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sqlcheck"
)

func BenchmarkDaemonServe(b *testing.B) {
	srv := httptest.NewServer(NewHandler(sqlcheck.New()))
	defer srv.Close()
	client := srv.Client()

	body := []byte(`{"query": "SELECT * FROM orders ORDER BY RAND() LIMIT 3"}`)
	post := func() {
		resp, err := client.Post(srv.URL+"/api/check", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // prime the report cache and the buffer pool

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
