package executor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shapesearch/internal/dataset"
	"shapesearch/internal/regexlang"
	"shapesearch/internal/shape"
)

// batchQueries is the property-test query pool: the shared fuzzy set plus
// optional-unit spellings, so batches mix heavy signature overlap (shared
// memo entries) with disjoint alternatives.
func batchQueries(t *testing.T) []shape.Query {
	t.Helper()
	qs := fuzzyQueries()
	for _, s := range []string{"u? ; d", "u ; d? ; u"} {
		qs = append(qs, regexlang.MustParse(s))
	}
	return qs
}

// requireSameResults asserts got is byte-identical to want: same order,
// same Z, same Score bits, same Ranges, same BreakXs bits.
func requireSameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Z != g.Z {
			t.Fatalf("%s: result %d Z = %q, want %q", label, i, g.Z, w.Z)
		}
		if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: result %d (%s) score bits %x, want %x (%v vs %v)",
				label, i, g.Z, math.Float64bits(g.Score), math.Float64bits(w.Score), g.Score, w.Score)
		}
		if len(w.Ranges) != len(g.Ranges) {
			t.Fatalf("%s: result %d (%s) has %d ranges, want %d", label, i, g.Z, len(g.Ranges), len(w.Ranges))
		}
		for j := range w.Ranges {
			if w.Ranges[j] != g.Ranges[j] {
				t.Fatalf("%s: result %d (%s) range %d = %v, want %v", label, i, g.Z, j, g.Ranges[j], w.Ranges[j])
			}
		}
		if len(w.BreakXs) != len(g.BreakXs) {
			t.Fatalf("%s: result %d (%s) has %d breaks, want %d", label, i, g.Z, len(g.BreakXs), len(w.BreakXs))
		}
		for j := range w.BreakXs {
			if math.Float64bits(w.BreakXs[j]) != math.Float64bits(g.BreakXs[j]) {
				t.Fatalf("%s: result %d (%s) break %d = %v, want %v", label, i, g.Z, j, g.BreakXs[j], w.BreakXs[j])
			}
		}
	}
}

// TestSearchBatchMatchesSequential is the batch-execution correctness
// property: over random corpora, query subsets, worker counts, and pruning
// settings, MultiPlan results are byte-identical — score bits, ranking,
// Ranges, BreakXs — to running each compiled plan independently. This is
// the contract that makes the server's batch endpoint transparent.
func TestSearchBatchMatchesSequential(t *testing.T) {
	pool := batchQueries(t)
	rng := rand.New(rand.NewSource(61))
	corpora := [][2]int{{4, 30}, {9, 70}, {14, 120}}
	for trial, shapeOf := range corpora {
		series := make([]dataset.Series, shapeOf[0])
		for i := range series {
			s := randomSeries(rng, shapeOf[1])
			s.Z = fmt.Sprintf("z%02d", i)
			series[i] = s
		}
		// A random query subset per trial, with repeats allowed so the
		// batch contains identical plans (maximal sharing).
		nq := 2 + rng.Intn(len(pool))
		qs := make([]shape.Query, nq)
		for i := range qs {
			qs[i] = pool[rng.Intn(len(pool))]
		}
		for _, workers := range []int{1, 4} {
			for _, pruning := range []bool{false, true} {
				label := fmt.Sprintf("trial%d/w%d/prune%v", trial, workers, pruning)
				opts := DefaultOptions()
				opts.Parallelism = workers
				opts.Pruning = pruning
				opts.K = 5
				plans := make([]*Plan, nq)
				for i, q := range qs {
					p, err := Compile(q, opts)
					if err != nil {
						t.Fatalf("%s: Compile(%d): %v", label, i, err)
					}
					plans[i] = p
				}
				mp, err := NewMultiPlan(plans)
				if err != nil {
					t.Fatalf("%s: NewMultiPlan: %v", label, err)
				}
				got, err := mp.RunContext(context.Background(), series)
				if err != nil {
					t.Fatalf("%s: batch Run: %v", label, err)
				}
				if len(got) != nq {
					t.Fatalf("%s: got %d result sets, want %d", label, len(got), nq)
				}
				for i, p := range plans {
					want, err := p.RunContext(context.Background(), series)
					if err != nil {
						t.Fatalf("%s: sequential Run(%d): %v", label, i, err)
					}
					requireSameResults(t, fmt.Sprintf("%s/q%d/reference", label, i), referenceRun(t, series, qs[i], opts), want)
					requireSameResults(t, fmt.Sprintf("%s/q%d", label, i), want, got[i])
				}
			}
		}
	}
}

// TestBatchSplitsByCandidateKey: a batch whose queries need different
// candidate sets — a pinned push-down query, a y-pinned query (which turns
// off z-normalization) and fuzzy ones — splits by Plan.CandidateKey and
// ranks each key's candidates in a pass of its own. Every query's batch
// results must equal its own plan's and referenceRun's, over a *Table, an
// *Index and pre-extracted series.
func TestBatchSplitsByCandidateKey(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var series []dataset.Series
	var zs []string
	var xs, ys []float64
	for i := 0; i < 12; i++ {
		s := randomSeries(rng, 40)
		s.Z = fmt.Sprintf("z%02d", i)
		series = append(series, s)
		for j := range s.X {
			zs = append(zs, s.Z)
			xs = append(xs, s.X[j])
			ys = append(ys, s.Y[j])
		}
	}
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  dataset.Source
	}{{"table", tbl}, {"index", dataset.BuildIndex(tbl)}}
	spec := dataset.ExtractSpec{Z: "z", X: "x", Y: "y"}
	queries := []string{"u ; d", "[p{up},x.s=10,x.e=30]", "d ; u ; d", "[p{up},y.s=1,y.e=5]", "u? ; d"}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		for _, pruning := range []bool{false, true} {
			label := fmt.Sprintf("w%d/prune%v", workers, pruning)
			opts := DefaultOptions()
			opts.Parallelism = workers
			opts.Pruning = pruning
			opts.K = 5
			qs := make([]shape.Query, len(queries))
			plans := make([]*Plan, len(queries))
			searchKeys := make(map[string]bool)
			runKeys := make(map[string]bool)
			for i, s := range queries {
				qs[i] = regexlang.MustParse(s)
				p, err := Compile(qs[i], opts)
				if err != nil {
					t.Fatalf("%s: Compile(%q): %v", label, s, err)
				}
				plans[i] = p
				searchKeys[p.CandidateKey(spec)] = true
				runKeys[p.CandidateKey(dataset.ExtractSpec{})] = true
			}
			if len(searchKeys) != 3 || len(runKeys) != 3 {
				t.Fatalf("%s: the batch needs %d search keys and %d run keys, want 3 each", label, len(searchKeys), len(runKeys))
			}
			mp, err := NewMultiPlan(plans)
			if err != nil {
				t.Fatalf("%s: NewMultiPlan: %v", label, err)
			}
			for _, src := range sources {
				got, err := mp.SearchContext(ctx, src.src, spec)
				if err != nil {
					t.Fatalf("%s/%s: batch search: %v", label, src.name, err)
				}
				for i, p := range plans {
					sl := fmt.Sprintf("%s/%s/q%d", label, src.name, i)
					want, err := p.SearchContext(ctx, src.src, spec)
					if err != nil {
						t.Fatalf("%s: search: %v", sl, err)
					}
					extracted, err := src.src.Extract(p.EffectiveSpec(spec))
					if err != nil {
						t.Fatalf("%s: extract: %v", sl, err)
					}
					requireSameResults(t, sl+"/reference", referenceRun(t, extracted, qs[i], opts), want)
					requireSameResults(t, sl, want, got[i])
				}
			}
			got, err := mp.RunContext(ctx, series)
			if err != nil {
				t.Fatalf("%s: batch run: %v", label, err)
			}
			for i, p := range plans {
				rl := fmt.Sprintf("%s/series/q%d", label, i)
				want, err := p.RunContext(ctx, series)
				if err != nil {
					t.Fatalf("%s: run: %v", rl, err)
				}
				requireSameResults(t, rl+"/reference", referenceRun(t, series, qs[i], opts), want)
				requireSameResults(t, rl, want, got[i])
			}
		}
	}
}

// TestMultiPlanDoesNotMutateInputs pins NewMultiPlan's immutability
// contract: the caller's plans keep their single-query metadata and stay
// usable (and bit-identical) after batch construction and execution.
func TestMultiPlanDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series := []dataset.Series{}
	for i := 0; i < 6; i++ {
		s := randomSeries(rng, 50)
		s.Z = fmt.Sprintf("z%d", i)
		series = append(series, s)
	}
	opts := seqOpts()
	opts.K = 3
	p1, err := Compile(regexlang.MustParse("u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(regexlang.MustParse("d ; u ; d"), opts)
	if err != nil {
		t.Fatal(err)
	}
	before1, err := p1.RunContext(context.Background(), series)
	if err != nil {
		t.Fatal(err)
	}
	meta1 := p1.opts.chainMeta
	mp, err := NewMultiPlan([]*Plan{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.RunContext(context.Background(), series); err != nil {
		t.Fatal(err)
	}
	if p1.opts.chainMeta != meta1 {
		t.Fatal("NewMultiPlan replaced the input plan's chainMeta")
	}
	after1, err := p1.RunContext(context.Background(), series)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "p1 after batch", before1, after1)
}

// TestNewMultiPlanRejectsIncompatible: plans whose options disagree on a
// score-relevant field cannot share batch evaluation state.
func TestNewMultiPlanRejectsIncompatible(t *testing.T) {
	a, err := Compile(regexlang.MustParse("u ; d"), seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := seqOpts()
	o.Stride = 4
	b, err := Compile(regexlang.MustParse("d ; u"), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiPlan([]*Plan{a, b}); err == nil {
		t.Fatal("NewMultiPlan accepted plans with different strides")
	}
	// K is per-query state (each query keeps its own heap) and MAY differ.
	o2 := seqOpts()
	o2.K = 1
	c, err := Compile(regexlang.MustParse("d ; u"), o2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiPlan([]*Plan{a, c}); err != nil {
		t.Fatalf("NewMultiPlan rejected plans differing only in K: %v", err)
	}
}

// TestPlanFingerprint pins the compiled-plan cache keying contract:
// syntactically different spellings that normalize to the same
// alternatives collide, and any weight difference separates.
func TestPlanFingerprint(t *testing.T) {
	compile := func(s string) *Plan {
		t.Helper()
		p, err := Compile(regexlang.MustParse(s), seqOpts())
		if err != nil {
			t.Fatalf("Compile(%q): %v", s, err)
		}
		return p
	}
	// `u? ; d` expands the optional into two alternatives
	// [{u .5, d .5}, {d 1}]; spelling those alternatives out through ⊕
	// normalizes to the same chains in the same order.
	a := compile("u? ; d")
	b := compile("(u ; d) ⊕ d")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equivalent spellings did not collide:\n%q\n%q", a.Fingerprint(), b.Fingerprint())
	}
	// Parenthesized concat nests weight division: `u ; (d ; u)` weights
	// .5/.25/.25 versus 1/3 each for `u ; d ; u`. Same unit structure,
	// different weights — must NOT collide (weights are exact IEEE bits).
	c := compile("u ; d ; u")
	d := compile("u ; (d ; u)")
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("queries with different unit weights collided")
	}
	// And trivially: same text, same fingerprint; different shape, different.
	if compile("u ; d").Fingerprint() != compile("u ; d").Fingerprint() {
		t.Fatal("identical queries produced different fingerprints")
	}
	if compile("u ; d").Fingerprint() == compile("d ; u").Fingerprint() {
		t.Fatal("different queries collided")
	}
}
