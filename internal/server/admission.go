package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"shapesearch/internal/server/faultinject"
)

// Admission control (ROADMAP "Production serving hardening"): a bounded,
// deadline-aware FIFO in front of scoring. At saturation new searches wait
// in a per-tenant queue with a queue-time budget and are shed with 429 +
// Retry-After once the queue is full or their budget runs out — never an
// unbounded goroutine pileup — and a request whose own context expires
// while it waits is answered from the queue (503 for a server-side
// deadline, a silent drop for a disconnected client) without ever
// consuming a scoring worker.
//
// Admitted requests draw their scoring parallelism from a fixed pool of
// worker tokens: each admission takes a fair share of the pool at the
// *admitted* concurrency, clamped to what the pool still has and floored
// at one worker. Because grants are clamped — not merely divided, as the
// old fixed-at-admission scheme was — the total handed out is bounded by
// workers + concurrency − 1 (each admission past a drained pool runs on
// its floor grant of one), instead of growing by a full fixed share per
// staggered arrival as before.
//
// Tenancy: every request carries a tenant id (X-Tenant header, falling
// back to the API key in Authorization, then the anonymous tenant "").
// Each tenant has its own FIFO and an optional concurrency cap, and freed
// slots are granted round-robin across the tenants with waiters, so one
// hot tenant saturating the server cannot starve the rest: its requests
// queue behind its cap while other tenants' requests keep flowing.

// Admission defaults: concurrency defaults to the core count (set in New),
// so a saturated server runs one scoring worker per admitted search.
const (
	defaultQueueDepth = 64
	defaultQueueWait  = 2 * time.Second
)

// errClientGone marks a request whose client disconnected while it waited
// for a slot or while it was scored. There is nobody left to read a
// status: the handler logs it and writes nothing.
var errClientGone = errors.New("server: client disconnected")

// overloadError is the load-shedding signal: the request was refused
// without consuming a scoring worker and the client should retry after
// RetryAfter seconds. Mapped to 429 Too Many Requests.
type overloadError struct {
	retryAfter int
	reason     string
}

func (e *overloadError) Error() string {
	return fmt.Sprintf("server overloaded (%s): retry after %ds", e.reason, e.retryAfter)
}

// admission is the bounded search queue. All fields behind mu; the
// configuration fields (concurrency, queueDepth, queueWait, tenantCap,
// workers) are written only during Server construction, before the value
// is shared.
type admission struct {
	mu sync.Mutex
	// concurrency is the maximum number of concurrently admitted searches.
	concurrency int
	// queueDepth bounds the waiters across all tenants; arrivals beyond it
	// are shed immediately.
	queueDepth int
	// queueWait is the queue-time budget: a request still queued after it
	// is shed (429), on the theory that by then the client's retry would
	// have been admitted faster than its original request.
	queueWait time.Duration
	// tenantCap caps one tenant's concurrently admitted searches
	// (0 = no per-tenant cap beyond the global concurrency).
	tenantCap int
	// workers is the scoring worker-token pool (the core count at
	// construction); workersOut is how many tokens admitted requests hold.
	workers    int
	workersOut int

	admitted int
	queued   int
	tenants  map[string]*tenantQueue
	// rr lists the tenants that currently have waiters; grants walk it
	// round-robin from rrPos so every tenant drains at the same rate
	// regardless of queue length.
	rr    []*tenantQueue
	rrPos int
	// calm is closed (and nilled) when load drops below the watermark —
	// no waiters and a free slot. Background work parks on it to yield.
	calm chan struct{}

	// Lifetime counters (tests and /api/health-style introspection).
	nAdmitted, nShed uint64
}

type tenantQueue struct {
	id      string
	running int
	waiters []*waiter
}

// waiter is one queued request. The granter moves its bookkeeping from
// queued to admitted under a.mu and then sends the worker budget on grant
// (buffered, never blocks); the waiter side builds the ticket.
type waiter struct {
	requested int
	grant     chan int
	tq        *tenantQueue
}

// ticket is an admitted request's slot. Exactly one release per ticket
// (idempotent under mu for safety); handlers must pair admit with
// `defer tk.release()` — enforced by the admissionpair analyzer.
type ticket struct {
	a      *admission
	tq     *tenantQueue
	budget int
	done   bool
}

func newAdmission(workers int) *admission {
	if workers < 1 {
		workers = 1
	}
	return &admission{
		concurrency: workers,
		queueDepth:  defaultQueueDepth,
		queueWait:   defaultQueueWait,
		workers:     workers,
		tenants:     make(map[string]*tenantQueue),
	}
}

// admit blocks until the request holds a search slot, or fails with
// *overloadError (shed: queue full or queue-time budget exhausted),
// context.DeadlineExceeded (the request's deadline expired first), or
// errClientGone (the client disconnected). On success the caller owns the
// ticket and must release it on every path via defer.
func (a *admission) admit(ctx context.Context, tenant string, requested int) (*ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, admissionCtxErr(err)
	}
	a.mu.Lock()
	tq := a.tenantLocked(tenant)
	if a.admitted < a.concurrency && tq.running < a.capLocked() {
		tk := a.grantLocked(tq, requested)
		a.mu.Unlock()
		return tk, nil
	}
	if a.queued >= a.queueDepth {
		a.nShed++
		// tenantLocked may have just created tq; a shed request leaves it
		// idle, and only gc keeps the map to live tenants.
		a.gcTenantLocked(tq)
		a.mu.Unlock()
		return nil, &overloadError{retryAfter: a.retryAfterSeconds(), reason: "queue full"}
	}
	w := &waiter{requested: requested, grant: make(chan int, 1), tq: tq}
	if len(tq.waiters) == 0 {
		a.rr = append(a.rr, tq)
	}
	tq.waiters = append(tq.waiters, w)
	a.queued++
	a.mu.Unlock()
	faultinject.Fire("server.admission.queued")

	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	select {
	case budget := <-w.grant:
		return &ticket{a: a, tq: tq, budget: budget}, nil
	case <-ctx.Done():
		if tk := a.withdraw(w); tk != nil {
			// A grant raced the expiry; the client is gone either way, so
			// hand the slot straight back.
			tk.release()
		}
		return nil, admissionCtxErr(ctx.Err())
	case <-timer.C:
		if tk := a.withdraw(w); tk != nil {
			// A grant raced the timeout. The slot is ours and the client is
			// still waiting: use it rather than shed an admitted request.
			return tk, nil
		}
		a.mu.Lock()
		a.nShed++
		a.mu.Unlock()
		return nil, &overloadError{retryAfter: a.retryAfterSeconds(), reason: "queue wait budget exhausted"}
	}
}

// admissionCtxErr classifies a context error at admission time: an expired
// deadline keeps its identity (503 + Retry-After), a cancellation means
// the client went away (dropped without a response).
func admissionCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return errClientGone
}

// withdraw removes w from its queue after an expiry. If w is no longer
// queued, a grant was delivered concurrently (the buffered send happens
// under a.mu before the waiter is unlinked), and withdraw returns the
// already-admitted ticket for the caller to use or release; otherwise it
// returns nil and the request was never admitted.
func (a *admission) withdraw(w *waiter) *ticket {
	a.mu.Lock()
	for i, x := range w.tq.waiters {
		if x == w {
			w.tq.waiters = append(w.tq.waiters[:i], w.tq.waiters[i+1:]...)
			if len(w.tq.waiters) == 0 {
				a.dropFromRRLocked(w.tq)
			}
			a.queued--
			a.gcTenantLocked(w.tq)
			a.maybeCalmLocked()
			a.mu.Unlock()
			return nil
		}
	}
	a.mu.Unlock()
	return &ticket{a: a, tq: w.tq, budget: <-w.grant}
}

// grantLocked admits one request for tq and takes its worker tokens.
func (a *admission) grantLocked(tq *tenantQueue, requested int) *ticket {
	a.admitted++
	tq.running++
	a.nAdmitted++
	budget := a.workerBudgetLocked(requested)
	a.workersOut += budget
	return &ticket{a: a, tq: tq, budget: budget}
}

// workerBudgetLocked computes an admitted request's scoring parallelism: a
// fair share of the worker pool at the current admitted concurrency,
// clamped to the tokens still unheld (a request admitted while earlier
// ones hold wide budgets gets the leftovers, so the pool is never
// oversubscribed), floored at one worker, and only ever lowered by an
// explicit client ask.
func (a *admission) workerBudgetLocked(requested int) int {
	budget := a.workers / a.admitted
	if left := a.workers - a.workersOut; budget > left {
		budget = left
	}
	if requested > 0 && requested < budget {
		budget = requested
	}
	if budget < 1 {
		budget = 1
	}
	return budget
}

// release returns the slot and its worker tokens, grants freed capacity to
// waiters (round-robin across tenants), and signals the calm channel when
// load drops below the watermark.
func (tk *ticket) release() {
	a := tk.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if tk.done {
		return
	}
	tk.done = true
	a.admitted--
	tk.tq.running--
	a.workersOut -= tk.budget
	a.gcTenantLocked(tk.tq)
	a.dispatchLocked()
	a.maybeCalmLocked()
}

// dispatchLocked hands freed slots to queued requests: FIFO within a
// tenant, round-robin across tenants, skipping tenants at their cap. It
// stops when the slots are gone, the queues are empty, or every waiting
// tenant is capped.
func (a *admission) dispatchLocked() {
	for a.admitted < a.concurrency && len(a.rr) > 0 {
		picked := -1
		for i := 0; i < len(a.rr); i++ {
			j := (a.rrPos + i) % len(a.rr)
			if a.rr[j].running < a.capLocked() {
				picked = j
				break
			}
		}
		if picked < 0 {
			return
		}
		tq := a.rr[picked]
		w := tq.waiters[0]
		tq.waiters = tq.waiters[1:]
		a.queued--
		if len(tq.waiters) == 0 {
			a.rr = append(a.rr[:picked], a.rr[picked+1:]...)
			if a.rrPos > picked {
				a.rrPos--
			}
		} else {
			a.rrPos = picked + 1
		}
		if len(a.rr) > 0 {
			a.rrPos %= len(a.rr)
		} else {
			a.rrPos = 0
		}
		a.admitted++
		tq.running++
		a.nAdmitted++
		budget := a.workerBudgetLocked(w.requested)
		a.workersOut += budget
		w.grant <- budget
	}
}

// capLocked is the effective per-tenant concurrency cap.
func (a *admission) capLocked() int {
	if a.tenantCap > 0 {
		return a.tenantCap
	}
	return a.concurrency
}

func (a *admission) tenantLocked(id string) *tenantQueue {
	tq, ok := a.tenants[id]
	if !ok {
		tq = &tenantQueue{id: id}
		a.tenants[id] = tq
	}
	return tq
}

// gcTenantLocked drops an idle tenant's queue state so the tenant map
// tracks live tenants, not every id ever seen.
func (a *admission) gcTenantLocked(tq *tenantQueue) {
	if tq.running == 0 && len(tq.waiters) == 0 {
		delete(a.tenants, tq.id)
	}
}

func (a *admission) dropFromRRLocked(tq *tenantQueue) {
	for i, x := range a.rr {
		if x == tq {
			a.rr = append(a.rr[:i], a.rr[i+1:]...)
			if a.rrPos > i {
				a.rrPos--
			}
			if len(a.rr) > 0 {
				a.rrPos %= len(a.rr)
			} else {
				a.rrPos = 0
			}
			return
		}
	}
}

// overloadedLocked is the load watermark: any waiter, or no free slot.
func (a *admission) overloadedLocked() bool {
	return a.queued > 0 || a.admitted >= a.concurrency
}

// maybeCalmLocked wakes calm-waiters when load drops below the watermark.
func (a *admission) maybeCalmLocked() {
	if !a.overloadedLocked() && a.calm != nil {
		close(a.calm)
		a.calm = nil
	}
}

// awaitCalm blocks until the server is below the load watermark (no queued
// searches and a free slot) or maxWait elapses. Background work — append
// patching, shape-index rebuilds — calls it to yield to interactive
// searches; the bound guarantees sustained overload degrades background
// work's latency, never starves it outright.
func (a *admission) awaitCalm(maxWait time.Duration) {
	deadline := time.NewTimer(maxWait)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		if !a.overloadedLocked() {
			a.mu.Unlock()
			return
		}
		if a.calm == nil {
			a.calm = make(chan struct{})
		}
		ch := a.calm
		a.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return
		}
	}
}

// retryAfterSeconds is the Retry-After hint on shed and expired responses:
// the queue-wait budget rounded up to whole seconds — by then the current
// queue has drained or been shed, so a retry sees fresh capacity.
// queueWait is immutable after construction, so no lock is needed.
func (a *admission) retryAfterSeconds() int {
	s := int(math.Ceil(a.queueWait.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// snapshot reports the live gauges; tests assert they return to zero after
// every burst and on every early-return path.
func (a *admission) snapshot() (admitted, queued, workersOut int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.queued, a.workersOut
}

// counters reports the lifetime (admitted, shed) totals.
func (a *admission) counters() (admitted, shed uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nAdmitted, a.nShed
}
