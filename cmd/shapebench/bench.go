package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"shapesearch/internal/dataset"
	"shapesearch/internal/server"
)

// conns is the number of connections searches use, so that a search can
// queue in the server behind the one it is running. Appends have one more
// of their own, so that append latency measures the server's write path
// rather than waiting behind searches for a connection.
const conns = 2

// closedOps is how many distinct requests a closed-loop segment cycles
// through.
const closedOps = 1024

// config holds one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	// trace adds the traced replay and the per-layer metrics.
	trace bool
	sizes sizes
	// minSamples is the fewest open-loop searches, and appends, a valid run
	// records: enough for ten beyond the p99.
	minSamples int
	// setups is how many times setup is repeated; setup_s is the median.
	setups int
	// spans, when set, receives the traced replay's spans.
	spans io.Writer
}

// outcome is one workload run's result.
type outcome struct {
	Run       int                `json:"run"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Invalid lists the validity guards the run broke: its numbers measure
	// the harness or the machine, not the server.
	Invalid []string `json:"invalid,omitempty"`
	// Retries counts the invalid runs repeated before this one.
	Retries int `json:"retries,omitempty"`
	// Failures describes the first few failed operations.
	Failures []string `json:"failures,omitempty"`
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 5 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// phases splits a run's measured seconds: a warm-up, the open-loop phase
// and the closed-loop phase. Setup has already sent one request of every
// class, so a short warm-up suffices; the open-loop phase gets the most
// time, because its p99 needs a thousand samples at a rate that leaves the
// machine mostly idle.
func phases(seconds float64) (warm, open, closed time.Duration) {
	s := time.Duration(seconds * float64(time.Second))
	warm, open = s/20, s*17/20
	return warm, open, s - warm - open
}

// run is one workload run in progress.
type run struct {
	w   workload
	cfg config
	in  *inputs
	out *outcome
	// mainTbl is the searched table (nil in ingest); the server, the oracle
	// and the replica share it since nothing is appended to it.
	mainTbl  *dataset.Table
	setupReq []searchReq
}

// runWorkload runs one workload: the measured phases and, with cfg.trace,
// the traced replay.
func runWorkload(ctx context.Context, w workload, cfg config) (*outcome, error) {
	warm, open, _ := phases(cfg.seconds)
	r := &run{w: w, cfg: cfg, out: &outcome{Workload: w.name, Seed: cfg.seed, Metrics: map[string]float64{}}}
	r.in = w.build(cfg.seed, cfg.sizes, max(int(w.appendRate*(warm+open).Seconds()), replayAppends(cfg.sizes)))
	if r.in.main != nil {
		r.mainTbl = r.in.main()
	}
	r.setupReq = r.setupRequests()
	if err := r.measured(ctx); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.traced(ctx); err != nil {
			return nil, err
		}
	}
	r.out.Metrics["fail_frac"] = float64(r.out.Failed) / float64(r.out.Attempted)
	r.guard()
	r.out.Correct = r.out.Failed == 0
	return r.out, nil
}

// rounds is how many times the open and the closed loop alternate after
// the warm-up. The machine's speed drifts by about a tenth over a few
// seconds; alternating, both loops sample it across the whole run, and the
// closed loop's throughput does not rest on one stretch of it.
const rounds = 4

// measured sets up a server, drives it through the warm-up and rounds of an
// open-loop and a closed-loop segment, and checks its replies.
func (r *run) measured(ctx context.Context) error {
	warm, open, closed := phases(r.cfg.seconds)
	ts, d, setupS, err := r.setup(ctx)
	if err != nil {
		return err
	}
	defer ts.Close()
	setupTimes := []float64{d.Seconds()}
	// The other setups are spread over the gaps after the warm-up and after
	// each round, so that a second or two of a slow machine, which would
	// cover a block of back-to-back setups, reaches only a few of them.
	extraSetups := func(gap int) error {
		extra := r.cfg.setups - 1
		for i := extra * gap / (rounds + 1); i < extra*(gap+1)/(rounds+1); i++ {
			t, d, _, err := r.setup(ctx)
			if err != nil {
				return err
			}
			t.Close()
			setupTimes = append(setupTimes, d.Seconds())
		}
		// Collect the discarded servers now rather than in the next round.
		runtime.GC()
		return nil
	}

	nSearch := int(r.w.searchRate * (warm + open).Seconds())
	nAppend := int(r.w.appendRate * (warm + open).Seconds())
	ops := r.schedule(nSearch, nAppend)
	origin := time.Now()
	var (
		warmS, openS, closedS []sample
		closedDone            int
		gc                    gcUse
		next                  int
	)
	// Segment 0 is the warm-up; segment k is the k-th of the open loop's
	// rounds parts, followed by a part of the closed loop.
	for k := 0; k <= rounds; k++ {
		from, to := time.Duration(0), warm
		if k > 0 {
			from, to = warm+open*time.Duration(k-1)/rounds, warm+open*time.Duration(k)/rounds
		}
		var seg []op
		for ; next < len(ops) && ops[next].At < to; next++ {
			o := ops[next]
			o.At -= from
			seg = append(seg, o)
		}
		before := readGC()
		res, err := runLoad(ctx, loadJob{URL: ts.URL, Ops: seg})
		if err != nil {
			return err
		}
		gc.add(before, readGC())
		res.rebase(origin)
		if k == 0 {
			warmS, gc = res.Samples, gcUse{}
			if err := extraSetups(k); err != nil {
				return err
			}
			continue
		}
		openS = append(openS, res.Samples...)
		r.out.Metrics["loadgen.realtime"] = b2f(res.Realtime)

		cops := make([]op, closedOps)
		for i := range cops {
			cops[i] = r.searchOp(nSearch + (k-1)*closedOps + i)
		}
		cres, err := runLoad(ctx, loadJob{URL: ts.URL, Closed: closed / rounds, Ops: cops})
		if err != nil {
			return err
		}
		for i := range cres.Samples {
			if s := &cres.Samples[i]; s.ok() && s.End <= closed/rounds {
				closedDone++
			}
		}
		cres.rebase(origin)
		closedS = append(closedS, cres.Samples...)
		if err := extraSetups(k); err != nil {
			return err
		}
	}
	r.out.Metrics["setup_s"] = median(setupTimes)

	// Decode kept replies before measuring the heap, so that it holds the
	// server's state and little of the benchmark's.
	checks := decodeKept(setupS, warmS, openS, closedS)
	r.out.Metrics["heap_live_mb"] = heapLiveMB()

	if err := r.check(ctx, ts.URL, setupS, [][]sample{warmS, openS, closedS}, checks); err != nil {
		return err
	}
	r.out.Metrics["search_qps"] = float64(closedDone) / (closed / rounds * rounds).Seconds()
	r.measure(setupS, warmS, openS, closedS, gc)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// setupRequests lists one request per distinct class, plus the search that
// caches the side tick stream's candidate set.
func (r *run) setupRequests() []searchReq {
	var reqs []searchReq
	for i, c := range r.in.mix.classes() {
		reqs = append(reqs, r.in.request(c, i))
	}
	if r.in.vis.dataset != ticksName {
		reqs = append(reqs, tickRequest(tickClass))
	}
	return reqs
}

// newServer registers the workload's searched table and ticks, a fresh
// copy of the tick stream's base table, with a new server.
func (r *run) newServer(ticks *dataset.Table) *server.Server {
	s := server.New()
	if r.mainTbl != nil {
		s.Register(r.in.vis.dataset, r.mainTbl)
	}
	s.Register(ticksName, ticks)
	return s
}

// setup starts a server and warms it, timing server.New, Register and one
// request per class until each has returned 200. Table generation happens
// before the clock starts.
func (r *run) setup(ctx context.Context) (*httptest.Server, time.Duration, []sample, error) {
	bodies := make([][]byte, len(r.setupReq))
	for i, req := range r.setupReq {
		b, err := json.Marshal(req)
		if err != nil {
			return nil, 0, nil, err
		}
		bodies[i] = b
	}
	ticks := r.in.ticks()
	t0 := time.Now()
	ts := httptest.NewServer(r.newServer(ticks))
	c := newClient(ts.URL, 1)
	defer c.close()
	samples := make([]sample, len(bodies))
	for i, b := range bodies {
		c.do(ctx, &op{Kind: opSearch, Path: "/api/search", Body: b}, &samples[i])
		if s := &samples[i]; !s.ok() {
			ts.Close()
			return nil, 0, nil, fmt.Errorf("%s setup request %d: status %d: %s: %s", r.w.name, i, s.Status, s.Err, s.Body)
		}
	}
	d := time.Since(t0)
	r.out.Attempted += len(bodies)
	return ts, d, samples, nil
}

// searchOp renders search i of the sequence.
func (r *run) searchOp(i int) op {
	b, err := json.Marshal(r.in.search(i))
	if err != nil {
		panic(err) // searchReq always marshals
	}
	return op{Kind: opSearch, Seq: i, Path: "/api/search", Body: b}
}

// schedule lays out the first searches and appends of the sequence, each
// stream at its fixed rate, merged in time order.
func (r *run) schedule(searches, appends int) []op {
	var ops []op
	for i := 0; i < searches; i++ {
		o := r.searchOp(i)
		o.At = time.Duration(float64(i) / r.w.searchRate * float64(time.Second))
		ops = append(ops, o)
	}
	for j := 0; j < appends; j++ {
		at := time.Duration((float64(j) + 0.5) / r.w.appendRate * float64(time.Second))
		ops = append(ops, op{Kind: opAppend, Seq: j, Batch: j, At: at, Path: "/api/append?dataset=" + ticksName, Body: r.in.csv[j]})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].At < ops[b].At })
	return ops
}

// gcSnapshot is the process's CPU and GC accounting at one instant.
type gcSnapshot struct {
	// gcCPU is the runtime's estimate of the CPU time its GC has used, which
	// advances when a cycle ends.
	gcCPU  float64
	cpu    time.Duration
	wall   time.Time
	numGC  int64
	pauses []time.Duration // most recent first
}

func readGC() gcSnapshot {
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(ms)
	var st debug.GCStats
	debug.ReadGCStats(&st)
	return gcSnapshot{gcCPU: ms[0].Value.Float64(), cpu: processCPU(), wall: time.Now(), numGC: st.NumGC, pauses: st.Pause}
}

// gcUse accumulates the process's CPU and GC accounting over several
// intervals.
type gcUse struct {
	gcCPU, cpu, wall float64 // seconds
	count            int
	pauses           []float64 // ms
}

func (u *gcUse) add(before, after gcSnapshot) {
	u.gcCPU += after.gcCPU - before.gcCPU
	u.cpu += (after.cpu - before.cpu).Seconds()
	u.wall += after.wall.Sub(before.wall).Seconds()
	n := int(after.numGC - before.numGC)
	for i := 0; i < n && i < len(after.pauses); i++ {
		u.pauses = append(u.pauses, ms(after.pauses[i]))
	}
	u.count += n
}

func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checked is one kept reply, decoded.
type checked struct {
	s        *sample
	rankings []ranking
	appended int
	err      error
}

// decodeKept decodes every kept reply body and drops the bodies.
func decodeKept(groups ...[]sample) map[*sample]*checked {
	out := make(map[*sample]*checked)
	for _, g := range groups {
		for i := range g {
			s := &g[i]
			if s.Body == nil || !s.ok() {
				continue
			}
			c := &checked{s: s}
			if s.Kind == opAppend {
				var a struct {
					Appended int `json:"appended"`
				}
				c.err = json.Unmarshal(s.Body, &a)
				c.appended = a.Appended
			} else {
				c.rankings, c.err = decodeReply(s.Body)
			}
			s.Body = nil
			out[s] = c
		}
	}
	return out
}

// measure computes the open loop's end-to-end metrics and the load-side
// per-layer ones: latencies after the warm-up, and the GC's share.
func (r *run) measure(setupS, warmS, openS, closedS []sample, gc gcUse) {
	m := r.out.Metrics
	var search, appends, lags []float64
	var shed, timeout, hits, searches int
	for i := range openS {
		s := &openS[i]
		lags = append(lags, ms(s.lag()))
		if s.Kind == opAppend {
			appends = append(appends, ms(s.latency()))
			continue
		}
		search = append(search, ms(s.latency()))
		searches++
		if s.PlanHit {
			hits++
		}
	}
	load := [][]sample{warmS, openS, closedS}
	ops := 0
	for _, g := range load {
		ops += len(g)
		for i := range g {
			switch g[i].Status {
			case http.StatusTooManyRequests:
				shed++
			case http.StatusServiceUnavailable:
				timeout++
			}
		}
	}
	r.latency("search", search)
	r.latency("append", appends)
	sort.Float64s(lags)
	m["loadgen.lag_p99_ms"] = percentile(lags, 99)
	m["server.plan_cache_hit_frac"] = float64(hits) / float64(max(searches, 1))
	m["server.shed_frac"] = float64(shed) / float64(ops)
	m["server.timeout_frac"] = float64(timeout) / float64(ops)
	// Shares of the time the scheduler's processors were available.
	avail := gc.wall * float64(runtime.GOMAXPROCS(0))
	m["runtime.gc_cpu_frac"] = gc.gcCPU / avail
	m["runtime.busy_frac"] = gc.cpu / avail
	sort.Float64s(gc.pauses)
	m["runtime.gc_pause_p99_ms"] = 0
	if len(gc.pauses) > 0 {
		m["runtime.gc_pause_p99_ms"] = percentile(gc.pauses, 99)
	}
	m["runtime.gc_count"] = float64(gc.count)

	r.out.Attempted += ops
	for _, g := range append(load, setupS) {
		for i := range g {
			if s := &g[i]; !s.ok() {
				r.out.fail("%s %d: status %d: %s %s", kindName(s.Kind), s.Seq, s.Status, s.Err, bytes.TrimSpace(s.Body))
			}
		}
	}
}

// latency records a stream's open-loop median and p99 with its sample
// count. A stream too short for a p99 is reported by the guards.
func (r *run) latency(name string, xs []float64) {
	sort.Float64s(xs)
	m := r.out.Metrics
	m[name+"_p50_ms"] = percentile(xs, 50)
	m[name+"_p99_ms"] = percentile(xs, 99)
	m[name+"_samples"] = float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func kindName(k opKind) string {
	if k == opAppend {
		return "append"
	}
	return "search"
}

// guard checks that the run measured the server, not the harness. An op is
// timed from when it was due, so a late dispatch adds its lateness to the
// op's latency: the lag's tail is held to a quarter of the latency tail it
// would distort. A frozen machine, which delays every op due while it is
// frozen, breaks the guard.
func (r *run) guard() {
	m := r.out.Metrics
	if lag, p99 := m["loadgen.lag_p99_ms"], m["search_p99_ms"]; lag > 0.25*p99 {
		r.out.Invalid = append(r.out.Invalid, fmt.Sprintf("load generator ran late: lag p99 %.3f ms > 25%% of search p99 %.3f ms", lag, p99))
	}
	for _, k := range []string{"search", "append"} {
		if n := int(m[k+"_samples"]); n < r.cfg.minSamples {
			r.out.Invalid = append(r.out.Invalid, fmt.Sprintf("open-loop phase recorded %d %ss, want at least %d", n, k, r.cfg.minSamples))
		}
	}
	if oh, ok := m["trace.overhead_frac"]; ok && oh > 0.05 {
		r.out.Invalid = append(r.out.Invalid, fmt.Sprintf("tracing overhead %.1f%% > 5%%", 100*oh))
	}
}

// check compares kept replies with the oracle, marking every reply that
// fails, and then checks the appended tick stream against a fresh server.
// The load phases' samples share one timeline. Searches of the tick stream
// that overlapped an append have no single expected reply and are checked
// for form only.
func (r *run) check(ctx context.Context, url string, setupS []sample, load [][]sample, kept map[*sample]*checked) error {
	bad := func(s *sample, format string, args ...any) {
		s.Err = "reply failed its check: " + fmt.Sprintf(format, args...)
	}
	// Appends travel over one connection, so they are applied in the order
	// they completed.
	var appends, applied []*sample
	for _, g := range load {
		for i := range g {
			s := &g[i]
			if s.Kind != opAppend {
				continue
			}
			appends = append(appends, s)
			if !s.ok() {
				continue
			}
			if c := kept[s]; c.err != nil || c.appended != r.in.batches[s.Batch].NumRows() {
				bad(s, "append %d: appended %d rows: %v", s.Batch, c.appended, c.err)
				continue
			}
			applied = append(applied, s)
		}
	}
	sort.Slice(applied, func(a, b int) bool { return applied[a].End < applied[b].End })

	type job struct {
		state int // applied batches the reply reflects; -1 when unknown
		req   searchReq
		c     *checked
	}
	var jobs []job
	for i := range setupS {
		jobs = append(jobs, job{0, r.setupReq[i], kept[&setupS[i]]})
	}
	for _, g := range load {
		for i := range g {
			s := &g[i]
			c := kept[s]
			if s.Kind != opSearch || c == nil {
				continue
			}
			state := 0
			if r.in.vis.dataset == ticksName {
				state = stateAt(s, applied, appends)
			}
			jobs = append(jobs, job{state, r.in.search(s.Seq), c})
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].state < jobs[b].state })

	tables := map[string]*dataset.Table{ticksName: r.in.ticks()}
	if r.mainTbl != nil {
		tables[r.in.vis.dataset] = r.mainTbl
	}
	or := newOracle(tables)
	next := 0
	exact, formOnly := 0, 0
	for _, j := range jobs {
		s := j.c.s
		if j.c.err != nil {
			bad(s, "%v", j.c.err)
			continue
		}
		if j.state < 0 {
			formOnly++
			for _, rk := range j.c.rankings {
				if !rk.wellFormed(j.req.K) {
					bad(s, "search %d: malformed ranking %v", s.Seq, rk.z)
					break
				}
			}
			continue
		}
		for ; next < j.state; next++ {
			if err := or.apply(ticksName, r.in.batches[applied[next].Batch]); err != nil {
				return err
			}
		}
		exact++
		want, err := or.expect(j.req)
		if err != nil {
			return fmt.Errorf("reference for search %d: %w", s.Seq, err)
		}
		if err := compareReply(j.c.rankings, want); err != nil {
			bad(s, "search %d differs from the reference: %v", s.Seq, err)
		}
	}
	for ; next < len(applied); next++ {
		if err := or.apply(ticksName, r.in.batches[applied[next].Batch]); err != nil {
			return err
		}
	}
	r.out.Metrics["check.exact"] = float64(exact)
	r.out.Metrics["check.form_only"] = float64(formOnly)
	return r.checkAppended(ctx, url, applied, or)
}

// stateAt returns how many appends a search's reply reflects: those that
// completed before it was sent, provided no append was in flight while it
// was; otherwise -1.
func stateAt(s *sample, applied, appends []*sample) int {
	for _, a := range appends {
		if a.Sent < s.End && a.End > s.Sent {
			return -1
		}
	}
	n := 0
	for _, a := range applied {
		if a.End < s.Sent {
			n++
		}
	}
	return n
}

// checkAppended sends one search per class of the tick stream to the
// benchmark's server and to a fresh server that registers the base table
// concatenated with every applied batch; both must match the oracle.
func (r *run) checkAppended(ctx context.Context, url string, applied []*sample, or *oracle) error {
	parts := []*dataset.Table{r.in.ticks()}
	for _, a := range applied {
		parts = append(parts, r.in.batches[a.Batch])
	}
	all, err := dataset.Concat(parts...)
	if err != nil {
		return err
	}
	fresh := server.New()
	fresh.Register(ticksName, all)
	reqs := []searchReq{tickRequest(tickClass)}
	if r.in.vis.dataset == ticksName {
		reqs = nil
		for i, c := range r.in.mix.classes() {
			reqs = append(reqs, r.in.request(c, i))
		}
	}
	c := newClient(url, 1)
	defer c.close()
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var s sample
		c.do(ctx, &op{Kind: opSearch, Path: "/api/search", Body: body}, &s)
		r.out.Attempted++
		rec := httptest.NewRecorder()
		fresh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/search", bytes.NewReader(body)))
		if !s.ok() || rec.Code != http.StatusOK {
			r.out.fail("appended-data check %d: status %d, fresh server %d: %s", i, s.Status, rec.Code, s.Err)
			continue
		}
		got, err := decodeReply(s.Body)
		if err != nil {
			r.out.fail("appended-data check %d: %v", i, err)
			continue
		}
		ref, err := decodeReply(rec.Body.Bytes())
		if err != nil {
			return fmt.Errorf("fresh server reply: %w", err)
		}
		want, err := or.expect(req)
		if err != nil {
			return fmt.Errorf("reference for appended-data check %d: %w", i, err)
		}
		if err := compareReply(got, ref); err != nil {
			r.out.fail("appended-data check %d: server differs from a fresh server: %v", i, err)
		} else if err := compareReply(got, want); err != nil {
			r.out.fail("appended-data check %d: server differs from the reference: %v", i, err)
		}
	}
	return nil
}
