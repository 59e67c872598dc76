package main

// Bounded admission for the analysis endpoints. Before this layer the
// daemon ran one goroutine per accepted request with no cap: a burst
// past pool capacity queued unboundedly inside the engine's pool
// semaphores, latency exploded for everyone, and memory grew with the
// backlog. Admission turns that failure mode into explicit load
// shedding — a fixed number of requests analyze (MaxInflight), a
// fixed number wait (MaxQueue, each at most QueueWait), and everything
// past that is refused immediately with 429 and a Retry-After computed
// from the observed service rate, so well-behaved clients back off to
// a rate the daemon can actually serve.
//
// Fairness: admission is per-tenant (the registered database name a
// request targets; anonymous requests share one bucket). Under
// contention — when the daemon is at or past its inflight bound — a
// tenant already holding its fair share of capacity is shed even if
// queue slots remain, so one chatty tenant queues behind its own
// requests instead of starving everyone else's. With no contention a
// single tenant may use the whole capacity.

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sqlcheck/internal/core"
)

// admitReason classifies an admission decision.
type admitReason int

const (
	admitOK       admitReason = iota
	admitCanceled             // client went away while queued
	shedQueueFull             // every queue slot taken
	shedQueueWait             // queued longer than QueueWait
	shedTenant                // tenant over fair share under contention
)

// queueWaitBounds are the queue-wait histogram bucket upper bounds in
// seconds (implicit +Inf catches the rest). The range spans "admitted
// on the fast path" (sub-millisecond) to the QueueWait cap.
var queueWaitBounds = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// admission is the bounded admission controller shared by the
// analysis endpoints.
type admission struct {
	maxInflight int
	maxQueue    int
	queueWait   time.Duration

	// sem holds one token per inflight request; capacity maxInflight.
	sem      chan struct{}
	inflight atomic.Int64
	queued   atomic.Int64

	// mu guards tenants: name -> slots held (inflight + queued). An
	// entry exists only while its tenant holds at least one slot, so
	// len(tenants) is the active-tenant count fairness divides by.
	mu      sync.Mutex
	tenants map[string]int

	// ewmaServiceNanos is an exponentially weighted moving average of
	// observed request service times, the rate estimate behind
	// Retry-After. Written under mu on release; read atomically.
	ewmaServiceNanos atomic.Int64

	admitted      atomic.Int64
	shedQueueFull atomic.Int64
	shedQueueWait atomic.Int64
	shedTenant    atomic.Int64

	waits *core.Histogram
}

// newAdmission builds a controller; bounds must be positive.
func newAdmission(maxInflight, maxQueue int, queueWait time.Duration) *admission {
	return &admission{
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
		queueWait:   queueWait,
		sem:         make(chan struct{}, maxInflight),
		tenants:     make(map[string]int),
		waits:       core.NewHistogram(queueWaitBounds),
	}
}

// acquire admits, queues, or sheds one request for tenant. On admitOK
// the returned release function must be called exactly once when the
// request finishes; for every other reason release is nil. ctx is the
// client's request context — a client that disconnects while queued
// gives its slot back immediately.
func (a *admission) acquire(ctx context.Context, tenant string) (release func(), reason admitReason) {
	if !a.enterTenant(tenant) {
		a.shedTenant.Add(1)
		return nil, shedTenant
	}

	// Fast path: a free inflight slot, no queueing, no timer. This is
	// the only path warm benchmark traffic takes, so it stays
	// allocation-free.
	select {
	case a.sem <- struct{}{}:
		a.waits.Observe(0)
		return a.admit(tenant, time.Now()), admitOK
	default:
	}

	// Queue: bounded waiters, each waiting at most queueWait.
	if !a.enterQueue() {
		a.leaveTenant(tenant)
		a.shedQueueFull.Add(1)
		return nil, shedQueueFull
	}
	start := time.Now()
	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		a.queued.Add(-1)
		wait := time.Since(start)
		a.waits.Observe(wait)
		return a.admit(tenant, time.Now()), admitOK
	case <-timer.C:
		a.queued.Add(-1)
		a.leaveTenant(tenant)
		a.waits.Observe(time.Since(start))
		a.shedQueueWait.Add(1)
		return nil, shedQueueWait
	case <-ctx.Done():
		a.queued.Add(-1)
		a.leaveTenant(tenant)
		return nil, admitCanceled
	}
}

// admit finalizes a successful acquisition and returns its release.
func (a *admission) admit(tenant string, startedAt time.Time) func() {
	a.inflight.Add(1)
	a.admitted.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			service := time.Since(startedAt)
			<-a.sem
			a.inflight.Add(-1)
			a.leaveTenant(tenant)
			a.observeService(service)
		})
	}
}

// enterTenant records one held slot for tenant, enforcing fairness:
// under contention (held slots at or past the inflight bound) a tenant
// already at its fair share — capacity divided by active tenants,
// minimum one — is refused.
func (a *admission) enterTenant(tenant string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	held := int(a.inflight.Load() + a.queued.Load())
	active := len(a.tenants)
	if a.tenants[tenant] == 0 {
		active++ // the requester counts as active
	}
	// Fairness needs both contention and competition: a lone tenant
	// saturating the daemon is bounded by the queue (and attributed to
	// it), not by a share of itself.
	if held >= a.maxInflight && active >= 2 {
		capacity := a.maxInflight + a.maxQueue
		fair := capacity / active
		if fair < 1 {
			fair = 1
		}
		if a.tenants[tenant] >= fair {
			return false
		}
	}
	a.tenants[tenant]++
	return true
}

// leaveTenant releases one held slot for tenant.
func (a *admission) leaveTenant(tenant string) {
	a.mu.Lock()
	if n := a.tenants[tenant]; n <= 1 {
		delete(a.tenants, tenant)
	} else {
		a.tenants[tenant] = n - 1
	}
	a.mu.Unlock()
}

// enterQueue reserves a queue slot if one is free.
func (a *admission) enterQueue() bool {
	for {
		q := a.queued.Load()
		if q >= int64(a.maxQueue) {
			return false
		}
		if a.queued.CompareAndSwap(q, q+1) {
			return true
		}
	}
}

// observeService folds one observed service time into the EWMA
// (alpha 1/8: stable under noise, adapts within a few dozen
// requests).
func (a *admission) observeService(d time.Duration) {
	for {
		old := a.ewmaServiceNanos.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if a.ewmaServiceNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates when a shed client should try again:
// the backlog ahead of it (queued plus inflight requests) divided by
// the service rate (maxInflight servers each taking the EWMA service
// time), clamped to [1, 30] whole seconds. With no observations yet
// it returns the floor — an idle-start burst should retry soon.
func (a *admission) retryAfterSeconds() int {
	avg := time.Duration(a.ewmaServiceNanos.Load())
	if avg <= 0 {
		return 1
	}
	backlog := float64(a.inflight.Load() + a.queued.Load())
	est := avg.Seconds() * backlog / float64(a.maxInflight)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// AdmissionStats is the admission controller's observable state,
// served under "admission" in the JSON /metrics snapshot and as the
// sqlcheck_admission_* family in the Prometheus rendering.
type AdmissionStats struct {
	// MaxInflight and MaxQueue are the configured bounds.
	MaxInflight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`
	// Inflight and Queued are the current occupancy gauges.
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	// Admitted counts requests that got an inflight slot (with or
	// without queueing).
	Admitted int64 `json:"admitted_total"`
	// ShedQueueFull, ShedQueueWait, and ShedTenant count 429s by
	// reason: no queue slot free, queued past the wait cap, and
	// tenant over fair share under contention.
	ShedQueueFull int64 `json:"shed_queue_full_total"`
	ShedQueueWait int64 `json:"shed_queue_wait_total"`
	ShedTenant    int64 `json:"shed_tenant_total"`
	// AvgServiceSeconds is the EWMA service-time estimate behind
	// Retry-After.
	AvgServiceSeconds float64 `json:"avg_service_seconds"`
	// QueueWaitCount/Sum/Buckets are the queue-wait histogram
	// (fast-path admissions observe zero wait).
	QueueWaitCount      int64         `json:"queue_wait_count"`
	QueueWaitSumSeconds float64       `json:"queue_wait_sum_seconds"`
	QueueWaitBuckets    []core.Bucket `json:"queue_wait_buckets"`
}

// ShedTotal is the total 429 count across shed reasons.
func (s AdmissionStats) ShedTotal() int64 {
	return s.ShedQueueFull + s.ShedQueueWait + s.ShedTenant
}

// Stats snapshots the controller.
func (a *admission) Stats() AdmissionStats {
	buckets, sum, count := a.waits.Snapshot()
	return AdmissionStats{
		MaxInflight:         a.maxInflight,
		MaxQueue:            a.maxQueue,
		Inflight:            a.inflight.Load(),
		Queued:              a.queued.Load(),
		Admitted:            a.admitted.Load(),
		ShedQueueFull:       a.shedQueueFull.Load(),
		ShedQueueWait:       a.shedQueueWait.Load(),
		ShedTenant:          a.shedTenant.Load(),
		AvgServiceSeconds:   (time.Duration(a.ewmaServiceNanos.Load())).Seconds(),
		QueueWaitCount:      count,
		QueueWaitSumSeconds: sum,
		QueueWaitBuckets:    buckets,
	}
}
