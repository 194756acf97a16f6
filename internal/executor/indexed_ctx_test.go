package executor

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"shapesearch/internal/regexlang"
)

// TestBuildVizIndexContextCancel pins the regression the ctxpropagate
// analyzer caught: the parallel summary pass inside the index build used to
// run under context.Background(), so a caller whose ctx was already dead
// still paid for summarizing the whole corpus. A cancelled ctx must abort
// the build with the ctx's error and no index.
func TestBuildVizIndexContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series := mixedCorpus(rng, 64, 48)
	opts := DefaultOptions()
	opts.Pruning = true
	plan, err := Compile(regexlang.MustParse("u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	vizs := plan.GroupSeries(series)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ix, err := BuildVizIndexContext(ctx, vizs, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildVizIndexContext(cancelled ctx) err = %v, want context.Canceled", err)
	}
	if ix != nil {
		t.Fatalf("BuildVizIndexContext(cancelled ctx) returned an index")
	}

	// The live path must still build, and identically to the wrapper.
	ix, err = BuildVizIndexContext(context.Background(), vizs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix == nil || ix.Len() == 0 {
		t.Fatal("BuildVizIndexContext(live ctx) built nothing")
	}
	if got, want := ix.Len(), BuildVizIndex(vizs, 0).Len(); got != want {
		t.Fatalf("context build indexed %d candidates, wrapper indexed %d", got, want)
	}
}

// countdownCtx is a context that stays live for its first `left` Err calls
// and reports context.Canceled from then on (closing Done as it turns).
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
	done chan struct{}
}

func newCountdownCtx(left int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: left, done: make(chan struct{})}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		return nil
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return context.Canceled
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

// TestRunMultiAutoIndexHonorsCancel pins the batch counterpart of the
// BuildVizIndexContext fix: a pruned batch over a corpus large enough for
// the automatic shape index materializes its candidates and then builds the
// index, and a request cancelled in between must not summarize the corpus.
// With one worker, the flat driver checks ctx once on entry and
// materialization checks it once per candidate and once on return, so the
// context turns cancelled at the first check after materialization — the
// index build's.
func TestRunMultiAutoIndexHonorsCancel(t *testing.T) {
	const n = lazyIndexMinCorpus
	series := allocSeries(n, 12)
	opts := seqOpts()
	opts.Algorithm = AlgSegmentTree
	opts.Pruning = true
	mp, err := CompileBatch(mustParseAll([]string{"u ; d", "d ; u"}), opts)
	if err != nil {
		t.Fatal(err)
	}
	vizs := mp.plans[0].GroupSeries(series)
	if len(vizs) != n {
		t.Fatalf("grouped %d candidates, want %d", len(vizs), n)
	}
	ctx := newCountdownCtx(1 + n + 1)
	res, err := mp.RunGroupedContext(ctx, vizs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunGroupedContext err = %v (%d result sets), want context.Canceled", err, len(res))
	}
	for i, v := range vizs {
		if v.pstats.ratio != 0 {
			t.Fatalf("candidate %d had its bound summary computed after cancellation", i)
		}
	}
}
