package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitSnapshot polls the admission gauges until cond holds or the test
// deadline nears; enqueueing happens on other goroutines, so tests
// sequence against it by observing the gauges rather than by sleeping.
func waitSnapshot(t *testing.T, a *admission, cond func(admitted, queued, workers int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		adm, q, w := a.snapshot()
		if cond(adm, q, w) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission gauges stuck at (%d,%d,%d)", adm, q, w)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmitImmediate(t *testing.T) {
	a := newAdmission(4)
	tk, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tk.budget != 4 {
		t.Fatalf("lone request budget = %d, want the whole pool (4)", tk.budget)
	}
	if adm, q, w := a.snapshot(); adm != 1 || q != 0 || w != 4 {
		t.Fatalf("gauges = (%d,%d,%d), want (1,0,4)", adm, q, w)
	}
	tk.release()
	tk.release() // idempotent: a second release must not skew the gauges
	if adm, q, w := a.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("gauges after release = (%d,%d,%d), want zeros", adm, q, w)
	}
}

// TestWorkerBudgetClamped: a request admitted while an earlier one holds a
// wide budget gets the leftovers (floored at one), never a fresh full
// share — the fix for the old fixed-at-admission oversubscription.
func TestWorkerBudgetClamped(t *testing.T) {
	a := newAdmission(8)
	t1, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1.budget != 8 {
		t.Fatalf("first budget = %d, want 8", t1.budget)
	}
	t2, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if t2.budget != 1 {
		t.Fatalf("budget with the pool drained = %d, want the floor grant 1", t2.budget)
	}
	t1.release()
	t3, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fair share at admitted=2 is 4, and 7 tokens are free: no clamp.
	if t3.budget != 4 {
		t.Fatalf("budget after release = %d, want fair share 4", t3.budget)
	}
	// An explicit ask only ever lowers the grant.
	t3.release()
	t4, err := a.admit(context.Background(), "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if t4.budget != 2 {
		t.Fatalf("requested-2 budget = %d, want 2", t4.budget)
	}
	t2.release()
	t4.release()
	if adm, q, w := a.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("gauges = (%d,%d,%d), want zeros", adm, q, w)
	}
}

// TestAdmitFIFO: waiters are granted in arrival order.
func TestAdmitFIFO(t *testing.T) {
	a := newAdmission(1)
	hold, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	enqueue := func(id, wantQueued int) {
		go func() {
			tk, err := a.admit(context.Background(), "", 0)
			if err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			order <- id
			tk.release()
		}()
		waitSnapshot(t, a, func(_, q, _ int) bool { return q == wantQueued })
	}
	enqueue(1, 1)
	enqueue(2, 2)
	hold.release()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("grant order = %d,%d, want FIFO 1,2", first, second)
	}
	waitSnapshot(t, a, func(adm, q, w int) bool { return adm == 0 && q == 0 && w == 0 })
}

// TestAdmitShedsWhenQueueFull: arrivals past a full queue are refused
// immediately with a retry hint, without joining the queue.
func TestAdmitShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(1)
	a.queueDepth = 1
	hold, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	go func() {
		tk, err := a.admit(context.Background(), "", 0)
		if err != nil {
			t.Errorf("queued waiter: %v", err)
			return
		}
		<-release
		tk.release()
	}()
	waitSnapshot(t, a, func(_, q, _ int) bool { return q == 1 })

	_, err = a.admit(context.Background(), "", 0)
	var oe *overloadError
	if !errors.As(err, &oe) {
		t.Fatalf("queue-full admit err = %v, want *overloadError", err)
	}
	if oe.retryAfter < 1 {
		t.Fatalf("retryAfter = %d, want >= 1", oe.retryAfter)
	}
	if _, shed := a.counters(); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}
	hold.release()
	close(release)
	waitSnapshot(t, a, func(adm, q, w int) bool { return adm == 0 && q == 0 && w == 0 })
}

// TestAdmissionShedDropsIdleTenant: a request shed at a full queue leaves
// no state behind, so a stream of distinct tenant ids cannot grow the
// tenant map. The two live tenants are the slot holder's and the queued
// waiter's.
func TestAdmissionShedDropsIdleTenant(t *testing.T) {
	a := newAdmission(1)
	a.queueDepth = 1
	hold, err := a.admit(context.Background(), "holder", 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk, err := a.admit(context.Background(), "waiter", 0)
		if err != nil {
			t.Errorf("queued waiter: %v", err)
			return
		}
		<-release
		tk.release()
	}()
	waitSnapshot(t, a, func(_, q, _ int) bool { return q == 1 })
	for i := 0; i < 1000; i++ {
		_, err := a.admit(context.Background(), fmt.Sprintf("shed-%d", i), 0)
		var oe *overloadError
		if !errors.As(err, &oe) {
			t.Fatalf("admit %d at a full queue: err = %v, want *overloadError", i, err)
		}
	}
	a.mu.Lock()
	n := len(a.tenants)
	a.mu.Unlock()
	if n != 2 {
		t.Fatalf("tenant map holds %d tenants after 1000 shed requests, want 2", n)
	}
	hold.release()
	close(release)
	<-done
	waitSnapshot(t, a, func(adm, q, w int) bool { return adm == 0 && q == 0 && w == 0 })
}

// TestAdmitShedsOnQueueWait: a request still queued when its queue-time
// budget runs out is shed rather than admitted late.
func TestAdmitShedsOnQueueWait(t *testing.T) {
	a := newAdmission(1)
	a.queueWait = 20 * time.Millisecond
	hold, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.admit(context.Background(), "", 0)
	var oe *overloadError
	if !errors.As(err, &oe) {
		t.Fatalf("queue-wait admit err = %v, want *overloadError", err)
	}
	if !strings.Contains(err.Error(), "queue wait") {
		t.Fatalf("err = %v, want the queue-wait reason", err)
	}
	hold.release()
	if adm, q, w := a.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("gauges = (%d,%d,%d), want zeros", adm, q, w)
	}
}

// TestAdmitContextErrors: an expired deadline keeps its identity (503 at
// the HTTP layer); a cancellation means the client left (dropped).
func TestAdmitContextErrors(t *testing.T) {
	a := newAdmission(1)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := a.admit(expired, "", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired admit err = %v, want DeadlineExceeded", err)
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := a.admit(canceled, "", 0); !errors.Is(err, errClientGone) {
		t.Fatalf("canceled admit err = %v, want errClientGone", err)
	}

	// A waiter whose deadline expires in the queue is answered from the
	// queue: DeadlineExceeded, and the queue empties.
	hold, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel3 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel3()
	if _, err := a.admit(ctx, "", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-expiry err = %v, want DeadlineExceeded", err)
	}
	hold.release()
	if adm, q, w := a.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("gauges = (%d,%d,%d), want zeros", adm, q, w)
	}
}

// TestTenantFairness: freed slots round-robin across tenants with waiters,
// so one tenant's deep queue cannot starve another's single request.
func TestTenantFairness(t *testing.T) {
	a := newAdmission(1)
	hold, err := a.admit(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 3)
	enqueue := func(tenant string, wantQueued int) {
		go func() {
			tk, err := a.admit(context.Background(), tenant, 0)
			if err != nil {
				t.Errorf("tenant %s: %v", tenant, err)
				return
			}
			order <- tenant
			tk.release()
		}()
		waitSnapshot(t, a, func(_, q, _ int) bool { return q == wantQueued })
	}
	enqueue("a", 1)
	enqueue("a", 2)
	enqueue("b", 3)
	hold.release()
	got := []string{<-order, <-order, <-order}
	// Strict FIFO would drain a,a,b; round-robin interleaves b after a's
	// first grant.
	want := []string{"a", "b", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
	waitSnapshot(t, a, func(adm, q, w int) bool { return adm == 0 && q == 0 && w == 0 })
}

// TestTenantCap: a capped tenant queues behind its own cap while other
// tenants use the free global slots.
func TestTenantCap(t *testing.T) {
	a := newAdmission(4)
	a.tenantCap = 1
	a1, err := a.admit(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		tk, err := a.admit(context.Background(), "a", 0)
		if err != nil {
			t.Errorf("capped waiter: %v", err)
			return
		}
		close(granted)
		tk.release()
	}()
	waitSnapshot(t, a, func(_, q, _ int) bool { return q == 1 })
	select {
	case <-granted:
		t.Fatal("tenant a's second request admitted past its cap")
	default:
	}
	// Another tenant sails through the free global slots.
	b1, err := a.admit(context.Background(), "b", 0)
	if err != nil {
		t.Fatalf("tenant b blocked by tenant a's cap: %v", err)
	}
	b1.release()
	a1.release()
	<-granted
	waitSnapshot(t, a, func(adm, q, w int) bool { return adm == 0 && q == 0 && w == 0 })
}

// TestAwaitCalm: background work parks while the server is at or above the
// load watermark and wakes when load drains; the bound caps the wait.
func TestAwaitCalm(t *testing.T) {
	a := newAdmission(1)
	hold, err := a.admit(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded: sustained load cannot park background work forever.
	start := time.Now()
	a.awaitCalm(20 * time.Millisecond)
	if since := time.Since(start); since < 20*time.Millisecond {
		t.Fatalf("awaitCalm returned after %v with load held, want the full bound", since)
	}
	// Wakes on calm: a parked waiter resumes when the slot frees.
	woke := make(chan struct{})
	go func() {
		a.awaitCalm(5 * time.Second)
		close(woke)
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-woke:
		t.Fatal("awaitCalm returned while the server was saturated")
	default:
	}
	hold.release()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("awaitCalm did not wake on calm")
	}
}

// TestGaugesPairedOnErrorPaths is the slot-leak regression: every
// early-return path through the search and append handlers — bad request,
// unknown dataset, parse failure, compile failure, canceled context,
// expired deadline — must leave the admission gauges at zero. A single
// unpaired path here once meant the server's capacity ratcheted down
// under client errors.
func TestGaugesPairedOnErrorPaths(t *testing.T) {
	s := testServer(t)
	registerBig(t, s)
	s.logf = func(string, ...any) {} // the disconnect path logs; keep the test quiet
	search := func(body any) *httptest.ResponseRecorder {
		return doJSON(t, s, http.MethodPost, "/api/search", body)
	}
	base := map[string]any{"dataset": "demo", "z": "z", "x": "x", "y": "y"}
	with := func(kv map[string]any) map[string]any {
		m := map[string]any{}
		for k, v := range base {
			m[k] = v
		}
		for k, v := range kv {
			m[k] = v
		}
		return m
	}
	cases := []struct {
		name string
		run  func() int
		want int
	}{
		{"method not allowed", func() int {
			return doJSON(t, s, http.MethodGet, "/api/search", nil).Code
		}, http.StatusMethodNotAllowed},
		{"invalid JSON", func() int {
			req := httptest.NewRequest(http.MethodPost, "/api/search", strings.NewReader("{"))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec.Code
		}, http.StatusBadRequest},
		{"batch and single mixed", func() int {
			return search(with(map[string]any{
				"query": "u", "kind": "regex",
				"queries": []map[string]any{{"kind": "regex", "query": "u"}},
			})).Code
		}, http.StatusBadRequest},
		{"unknown dataset", func() int {
			return search(map[string]any{"kind": "regex", "query": "u",
				"dataset": "nope", "z": "z", "x": "x", "y": "y"}).Code
		}, http.StatusNotFound},
		{"bad aggregation", func() int {
			return search(with(map[string]any{"kind": "regex", "query": "u", "agg": "median"})).Code
		}, http.StatusBadRequest},
		{"bad algorithm", func() int {
			return search(with(map[string]any{"kind": "regex", "query": "u", "algorithm": "quantum"})).Code
		}, http.StatusBadRequest},
		{"parse failure after admission", func() int {
			return search(with(map[string]any{"kind": "bogus", "query": "u"})).Code
		}, http.StatusUnprocessableEntity},
		{"batch parse failure after admission", func() int {
			return search(with(map[string]any{
				"queries": []map[string]any{{"kind": "bogus", "query": "u"}},
			})).Code
		}, http.StatusUnprocessableEntity},
		{"compile failure after admission", func() int {
			return search(with(map[string]any{"kind": "regex", "query": "[p=foo_pattern]"})).Code
		}, http.StatusBadRequest},
		{"append bad body", func() int {
			req := httptest.NewRequest(http.MethodPost, "/api/append?dataset=demo",
				strings.NewReader("not,the\nschema,1\n"))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec.Code
		}, http.StatusBadRequest},
		{"success for contrast", func() int {
			return search(with(map[string]any{"kind": "regex", "query": "u ; d"})).Code
		}, http.StatusOK},
	}
	for _, tc := range cases {
		if code := tc.run(); code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, code, tc.want)
		}
		if adm, q, w := s.adm.snapshot(); adm != 0 || q != 0 || w != 0 {
			t.Fatalf("%s: gauges = (%d,%d,%d), want zeros", tc.name, adm, q, w)
		}
	}

	// Canceled context (client disconnect): dropped, gauges zero.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/search", searchBody(t)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if adm, q, w := s.adm.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("canceled context: gauges = (%d,%d,%d), want zeros", adm, q, w)
	}

	// Expired deadline mid-scoring: 503, gauges zero.
	s.SetSearchTimeout(2 * time.Millisecond)
	code := search(map[string]any{"kind": "regex", "query": "u ; d ; u ; d",
		"dataset": "big", "z": "z", "x": "x", "y": "y", "algorithm": "dp"}).Code
	s.SetSearchTimeout(0)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timeout status = %d, want 503", code)
	}
	if adm, q, w := s.adm.snapshot(); adm != 0 || q != 0 || w != 0 {
		t.Fatalf("timeout: gauges = (%d,%d,%d), want zeros", adm, q, w)
	}
}
