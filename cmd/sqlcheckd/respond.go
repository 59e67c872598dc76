package main

// Pooled response encoding. Every handler funnels through writeJSON,
// which used to build a fresh json.Encoder against the socket per
// request — encoder, indent state, and the encoder's internal scratch
// all became per-request garbage, and the response streamed without a
// Content-Length. Serving now rents a pre-sized buffer (with its
// encoder permanently bound, so neither is reallocated) from a
// sync.Pool, encodes into it, and writes the bytes once. Counters on
// the rented buffers are the daemon's per-request allocation
// telemetry, rendered on /metrics as the sqlcheck_http_* family: a
// healthy steady state reuses buffers on almost every response, so
// sqlcheck_http_buffers_allocated_total flatlines while
// sqlcheck_http_responses_total climbs.

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// respBufMaxRecycle bounds what returns to the pool: a response that
// ballooned past it (a huge batch report) would pin that memory for
// the life of the pool entry, so oversized buffers are dropped and
// counted instead.
const respBufMaxRecycle = 1 << 20

// respBufPresize is the initial capacity of a fresh pooled buffer —
// large enough that typical single-report responses never grow it.
const respBufPresize = 16 << 10

// httpStats counts response serving and buffer-pool behavior. Gets
// minus allocs is the reuse count; the three buffer counters together
// describe how much per-request garbage serving produces (ideally
// none once the pool is warm).
var httpStats struct {
	responses     atomic.Int64
	responseBytes atomic.Int64
	bufferGets    atomic.Int64
	bufferAllocs  atomic.Int64
	bufferDrops   atomic.Int64
}

// responseBuffer pairs a reusable buffer with a JSON encoder bound to
// it for life, so a pooled response allocates neither.
type responseBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var respPool = sync.Pool{New: func() any {
	httpStats.bufferAllocs.Add(1)
	r := &responseBuffer{}
	r.buf.Grow(respBufPresize)
	r.enc = json.NewEncoder(&r.buf)
	return r
}}

func writeJSON(w http.ResponseWriter, status int, v any) {
	httpStats.bufferGets.Add(1)
	r := respPool.Get().(*responseBuffer)
	r.buf.Reset()
	if err := r.enc.Encode(v); err != nil {
		// Nothing reached the socket yet, so the failure can still be
		// reported as a real error response.
		respPool.Put(r)
		log.Printf("sqlcheckd: encoding response: %v", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"response encoding failed"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(r.buf.Len()))
	w.WriteHeader(status)
	n, _ := w.Write(r.buf.Bytes())
	httpStats.responses.Add(1)
	httpStats.responseBytes.Add(int64(n))
	if r.buf.Cap() > respBufMaxRecycle {
		httpStats.bufferDrops.Add(1)
		return
	}
	respPool.Put(r)
}
