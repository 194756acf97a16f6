package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 2, 1}
	if d := Distance(a, a); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

func TestDistanceShifted(t *testing.T) {
	// DTW aligns phase-shifted copies of the same shape much more closely
	// than Euclidean does — the property that motivates it.
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = math.Sin(float64(i) / 5)
		b[i] = math.Sin(float64(i)/5 + 0.8)
	}
	if dtw, euc := Distance(a, b), Euclidean(a, b); dtw >= euc {
		t.Fatalf("DTW %v should beat Euclidean %v on phase shift", dtw, euc)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 2+r.Intn(30), 2+r.Intn(30)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64()
		}
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// naiveDTW is DTW over the full (n+1) × (m+1) cost matrix, written from
// the recurrence: D[i][j] = (a[i−1] − b[j−1])² + min(D[i−1][j],
// D[i−1][j−1], D[i][j−1]), D[0][0] = 0 and +Inf elsewhere on the borders.
func naiveDTW(a, b []float64) float64 {
	n, m := len(a), len(b)
	d := make([][]float64, n+1)
	for i := range d {
		d[i] = make([]float64, m+1)
		for j := range d[i] {
			d[i][j] = math.Inf(1)
		}
	}
	d[0][0] = 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			c := (a[i-1] - b[j-1]) * (a[i-1] - b[j-1])
			d[i][j] = c + math.Min(d[i-1][j], math.Min(d[i-1][j-1], d[i][j-1]))
		}
	}
	return math.Sqrt(d[n][m])
}

// TestDistanceMatchesFullMatrix: the two-row DP equals the full-matrix
// recurrence exactly on random series of unequal lengths, one-point series
// included.
func TestDistanceMatchesFullMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		a := make([]float64, 1+r.Intn(30))
		b := make([]float64, 1+r.Intn(30))
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64() * 2
		}
		if got, want := Distance(a, b), naiveDTW(a, b); got != want {
			t.Fatalf("len %d vs %d: Distance = %v, full matrix %v", len(a), len(b), got, want)
		}
	}
}

func TestDistanceEmpty(t *testing.T) {
	if !math.IsInf(Distance(nil, []float64{1}), 1) {
		t.Fatal("empty input should be +Inf")
	}
	if !math.IsInf(Euclidean(nil, nil), 1) {
		t.Fatal("empty euclidean should be +Inf")
	}
}

func TestEuclideanResamples(t *testing.T) {
	a := []float64{0, 1, 2}
	b := []float64{0, 0.5, 1, 1.5, 2}
	if d := Euclidean(a, b); d > 1e-9 {
		t.Fatalf("same line at different sampling = %v, want ~0", d)
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity(0, 100, 2); s != 1 {
		t.Fatalf("zero distance similarity = %v, want 1", s)
	}
	if s := Similarity(math.Inf(1), 100, 2); s != -1 {
		t.Fatalf("inf distance similarity = %v, want -1", s)
	}
	if s := Similarity(5, 0, 2); s != -1 {
		t.Fatal("n=0 should be worst")
	}
	// Longer series tolerate proportionally more absolute distance.
	if Similarity(3, 10, 2) >= Similarity(3, 1000, 2) {
		t.Fatal("similarity should normalize by length")
	}
}

func TestZNormalized(t *testing.T) {
	orig := []float64{2, 4, 6}
	z := ZNormalized(orig)
	if orig[0] != 2 {
		t.Fatal("input must not be mutated")
	}
	var mean float64
	for _, v := range z {
		mean += v
	}
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("mean = %v, want 0", mean)
	}
}
