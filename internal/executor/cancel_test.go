package executor

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"shapesearch/internal/regexlang"
)

// TestRunContextPreCanceled: an already-canceled context returns before any
// scoring happens.
func TestRunContextPreCanceled(t *testing.T) {
	series := allocSeries(4, 50)
	plan, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.RunContext(ctx, series); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
	// The pruning pipeline's bounding pass must also observe the context.
	opts := DefaultOptions()
	opts.Pruning = true
	opts.Algorithm = AlgSegmentTree
	pruned, err := Compile(regexlang.MustParse("u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pruned.RunContext(ctx, series); !errors.Is(err, context.Canceled) {
		t.Fatalf("pruned RunContext on canceled ctx = %v, want context.Canceled", err)
	}
	// The distance baselines run on the same cancellable pool.
	opts = DefaultOptions()
	opts.Algorithm = AlgDTW
	dist, err := Compile(regexlang.MustParse("u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.RunContext(ctx, series); !errors.Is(err, context.Canceled) {
		t.Fatalf("distance RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidFlight: canceling a slow multi-worker search stops
// the pipeline promptly (bounded by a few candidates' scoring time, far
// below the full run) and leaks no goroutines.
func TestRunContextCancelMidFlight(t *testing.T) {
	// A full DP run over this collection takes tens of seconds; the test
	// cancels ~10ms in and requires completion within a generous bound
	// that still proves almost all work was skipped.
	series := allocSeries(400, 1000)
	opts := DefaultOptions()
	opts.Algorithm = AlgDP
	opts.Parallelism = 4
	plan, err := Compile(regexlang.MustParse("u ; d ; u"), opts)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := plan.RunContext(ctx, series)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled search did not return within 30s")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}

	// All worker goroutines must exit once the pipeline drains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistanceBaselineParallelMatchesSequential: the parallelized
// DTW/Euclidean scan must reproduce the sequential ranking exactly (slots
// are rebuilt in index order, and the reference memo is worker-shared).
func TestDistanceBaselineParallelMatchesSequential(t *testing.T) {
	series := allocSeries(40, 80)
	for _, alg := range []Algorithm{AlgDTW, AlgEuclidean} {
		seq := DefaultOptions()
		seq.Algorithm = alg
		seq.Parallelism = 1
		par := seq
		par.Parallelism = 4
		want, err := searchSeries(series, regexlang.MustParse("u ; d"), seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := searchSeries(series, regexlang.MustParse("u ; d"), par)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("alg %v: %d results parallel vs %d sequential", alg, len(got), len(want))
		}
		for i := range want {
			if want[i].Z != got[i].Z || want[i].Score != got[i].Score {
				t.Fatalf("alg %v result %d: parallel (%s, %v) != sequential (%s, %v)",
					alg, i, got[i].Z, got[i].Score, want[i].Z, want[i].Score)
			}
		}
	}
}
