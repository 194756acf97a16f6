package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opKind tells searches from appends.
type opKind uint8

const (
	opSearch opKind = iota
	opAppend
)

// op is one HTTP request of a phase. Ops travel to the load-generator
// process as JSON, hence the exported fields.
type op struct {
	Kind opKind `json:"kind"`
	// Seq numbers the op within its kind across the whole workload sequence;
	// every tenth search (Seq%10 == 0) is reference-checked.
	Seq int `json:"seq"`
	// Batch is the appended batch (appends only).
	Batch int `json:"batch"`
	// At is the op's scheduled send time from the start of an open-loop
	// phase.
	At   time.Duration `json:"at"`
	Path string        `json:"path"`
	Body []byte        `json:"body"`
}

// sample is what one op observed. Times are offsets from the phase start.
type sample struct {
	Kind   opKind        `json:"kind"`
	Seq    int           `json:"seq"`
	Batch  int           `json:"batch"`
	Sched  time.Duration `json:"sched"` // when it was due (open loop) or sent (closed loop)
	Sent   time.Duration `json:"sent"`  // when the generator handed it to the client
	End    time.Duration `json:"end"`   // when the whole reply had been read
	Status int           `json:"status"`
	// Err describes a transport error, or a reply that failed its check.
	Err     string `json:"err,omitempty"`
	PlanHit bool   `json:"plan_hit,omitempty"`
	// Body is kept for checked ops only.
	Body []byte `json:"body,omitempty"`
}

// latency is the op's time from its scheduled send to its full reply, so a
// stall is charged to every op it delayed, not only to the one it hit.
func (s *sample) latency() time.Duration { return s.End - s.Sched }

// lag is how late the generator dispatched the op.
func (s *sample) lag() time.Duration { return s.Sent - s.Sched }

func (s *sample) ok() bool { return s.Err == "" && s.Status >= 200 && s.Status < 300 }

// keep reports whether an op's reply body is kept for checking: every
// append, and every tenth search.
func keep(kind opKind, seq int) bool { return kind == opAppend || seq%10 == 0 }

var planHitMarker = []byte(`"plan_cache":{"hit":true`)

// client sends ops over at most conns connections to one server.
type client struct {
	base string
	http *http.Client
	tr   *http.Transport
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one op and fills s.Status, s.Err, s.PlanHit and, for kept ops,
// s.Body; the caller stamps the times.
func (c *client) do(ctx context.Context, o *op, s *sample) {
	ctype := "application/json"
	if o.Kind == opAppend {
		ctype = "text/csv"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.Path, bytes.NewReader(o.Body))
	if err != nil {
		s.Err = err.Error()
		return
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.http.Do(req)
	if err != nil {
		s.Err = err.Error()
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	s.Status = resp.StatusCode
	if err != nil {
		s.Err = err.Error()
	}
	s.PlanHit = bytes.Contains(body, planHitMarker)
	if keep(o.Kind, o.Seq) || !s.ok() {
		s.Body = body
	}
}

// openLoop sends ops on their schedule whatever the server's progress: a
// dispatcher sleeps until each op is due and hands it to its own goroutine,
// which waits for a connection of its kind's client. It returns once every
// reply is in. Times are offsets from start. The dispatcher keeps its own
// thread, so that sleep blocks only it, at real-time priority where the OS
// permits, so that it does not wait for the CPUs the server keeps busy;
// realtime reports whether it did.
func openLoop(ctx context.Context, searches, appends *client, ops []op, start time.Time) (samples []sample, realtime bool) {
	samples = make([]sample, len(ops))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if realtime = raiseThread(); realtime {
		defer lowerThread()
	}
	var wg sync.WaitGroup
	for i := range ops {
		o, s := &ops[i], &samples[i]
		if d := o.At - time.Since(start); d > 0 {
			sleep(d)
		}
		s.Kind, s.Seq, s.Batch = o.Kind, o.Seq, o.Batch
		s.Sched, s.Sent = o.At, time.Since(start)
		wg.Add(1)
		c := searches
		if o.Kind == opAppend {
			c = appends
		}
		go func() {
			defer wg.Done()
			c.do(ctx, o, s)
			s.End = time.Since(start)
		}()
	}
	wg.Wait()
	return samples, realtime
}

// closedLoop runs conns clients that each send their next op as soon as the
// previous reply is in, for d from start. next builds op i of the sequence.
// Ops still in flight at the deadline complete but are marked late
// (End > d). Times are offsets from start.
func closedLoop(ctx context.Context, c *client, conns int, d time.Duration, next func(i int) op, start time.Time) []sample {
	var (
		mu      sync.Mutex
		samples []sample
		counter atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				o := next(int(counter.Add(1) - 1))
				s := sample{Kind: o.Kind, Seq: o.Seq, Batch: o.Batch}
				s.Sched = time.Since(start)
				s.Sent = s.Sched
				c.do(ctx, &o, &s)
				s.End = time.Since(start)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}

// loadJob is one phase for the load-generator process: Ops sent on their
// schedule (the open loop) or, when Closed is set, conns clients cycling
// through Ops back to back for Closed (the closed loop).
type loadJob struct {
	URL    string        `json:"url"`
	Closed time.Duration `json:"closed,omitempty"`
	Ops    []op          `json:"ops"`
}

// loadResult is what the load-generator process writes back.
type loadResult struct {
	// Start is when the phase started, in Unix nanoseconds; sample times
	// are offsets from it.
	Start   int64    `json:"start"`
	Samples []sample `json:"samples"`
	// Realtime reports whether the open-loop dispatcher ran at real-time
	// priority.
	Realtime bool `json:"realtime"`
}

// rebase makes the sample times offsets from origin, so that samples of
// several phases share one timeline.
func (res *loadResult) rebase(origin time.Time) {
	d := time.Unix(0, res.Start).Sub(origin)
	for i := range res.Samples {
		s := &res.Samples[i]
		s.Sched, s.Sent, s.End = s.Sched+d, s.Sent+d, s.End+d
	}
}

// loadgenFlag makes the program the load-generator process: it reads one
// loadJob on standard input and writes a loadResult on standard output.
const loadgenFlag = "-loadgen"

// loadgenMain is the load-generator process.
func loadgenMain(stdin io.Reader, stdout, stderr io.Writer) int {
	var job loadJob
	if err := json.NewDecoder(stdin).Decode(&job); err != nil {
		fmt.Fprintf(stderr, "shapebench %s: reading job: %v\n", loadgenFlag, err)
		return exitUsage
	}
	if len(job.Ops) == 0 {
		fmt.Fprintf(stderr, "shapebench %s: job has no ops\n", loadgenFlag)
		return exitUsage
	}
	// More scheduler processors than the load needs, so that the open-loop
	// dispatcher finds an idle one whenever it wakes: were every one held by
	// a thread the OS has descheduled, it would wait for them.
	runtime.GOMAXPROCS(8)
	ctx := context.Background()
	searches, appends := newClient(job.URL, conns), newClient(job.URL, 1)
	defer searches.close()
	defer appends.close()
	start := time.Now()
	res := loadResult{Start: start.UnixNano()}
	if job.Closed > 0 {
		res.Samples = closedLoop(ctx, searches, conns, job.Closed, func(i int) op { return job.Ops[i%len(job.Ops)] }, start)
	} else {
		res.Samples, res.Realtime = openLoop(ctx, searches, appends, job.Ops, start)
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "shapebench %s: writing samples: %v\n", loadgenFlag, err)
		return exitFailed
	}
	return exitOK
}

// runLoad runs one phase in a load-generator process: this program started
// again with loadgenFlag. In the server's own process the open-loop
// dispatcher would wait for one of the Go scheduler's processors whenever
// the server's goroutines hold them all, up to the scheduler's 10 ms time
// slice, and every wait would count as lag.
func runLoad(ctx context.Context, job loadJob) (loadResult, error) {
	var res loadResult
	exe, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("finding the load generator: %w", err)
	}
	in, err := json.Marshal(job)
	if err != nil {
		return res, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, loadgenFlag)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(in), &out, os.Stderr
	if err := startFavored(cmd); err != nil {
		return res, fmt.Errorf("starting the load generator: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("load generator: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("reading the load generator's samples: %w", err)
	}
	return res, nil
}
