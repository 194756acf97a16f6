package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shapesearch/internal/dataset"
)

func testServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s := New(opts...)
	// A tiny dataset: "peak" rises then falls, "rise" only rises.
	var zs []string
	var xs, ys []float64
	add := func(z string, vals ...float64) {
		for i, v := range vals {
			zs = append(zs, z)
			xs = append(xs, float64(i))
			ys = append(ys, v)
		}
	}
	add("peak", 0, 2, 4, 6, 8, 6, 4, 2, 0)
	add("rise", 0, 1, 2, 3, 4, 5, 6, 7, 8)
	tbl, err := dataset.New(
		dataset.Column{Name: "z", Type: dataset.String, Strings: zs},
		dataset.Column{Name: "x", Type: dataset.Float, Floats: xs},
		dataset.Column{Name: "y", Type: dataset.Float, Floats: ys},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Register("demo", tbl)
	return s
}

func doJSON(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealth(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodGet, "/api/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestListDatasets(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodGet, "/api/datasets", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var infos []datasetInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "demo" || infos[0].Rows != 18 {
		t.Fatalf("infos = %+v", infos)
	}
}

func TestUploadDataset(t *testing.T) {
	s := testServer(t)
	csv := "city,month,temp\nnyc,1,30\nnyc,2,40\nsf,1,50\nsf,2,55\n"
	req := httptest.NewRequest(http.MethodPost, "/api/datasets/weather", strings.NewReader(csv))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = doJSON(t, s, http.MethodGet, "/api/datasets", nil)
	if !strings.Contains(rec.Body.String(), "weather") {
		t.Fatalf("datasets = %s", rec.Body.String())
	}
	// Bad upload.
	req = httptest.NewRequest(http.MethodPost, "/api/datasets/bad", strings.NewReader(""))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty CSV upload status = %d", rec.Code)
	}
}

func TestParseRegex(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodPost, "/api/parse",
		parseRequest{Kind: "regex", Query: "u ; d"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp parseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Canonical != "[p=up][p=down]" || !resp.Fuzzy {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestParseNLWithEntities(t *testing.T) {
	rec := doJSON(t, testServer(t), http.MethodPost, "/api/parse",
		parseRequest{Kind: "nl", Query: "rising then falling"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp parseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Canonical != "[p=up][p=down]" {
		t.Fatalf("canonical = %q", resp.Canonical)
	}
	if len(resp.Entities) != 3 {
		t.Fatalf("entities = %+v", resp.Entities)
	}
}

func TestParseSketch(t *testing.T) {
	body := map[string]any{
		"kind": "sketch",
		"sketch": []map[string]float64{
			{"X": 0, "Y": 0}, {"X": 1, "Y": 2}, {"X": 2, "Y": 4},
			{"X": 3, "Y": 2}, {"X": 4, "Y": 0},
		},
	}
	rec := doJSON(t, testServer(t), http.MethodPost, "/api/parse", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp parseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Canonical != "[p=up][p=down]" {
		t.Fatalf("canonical = %q", resp.Canonical)
	}
}

func TestParseErrors(t *testing.T) {
	s := testServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/parse", parseRequest{Kind: "regex", Query: "["})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	rec = doJSON(t, s, http.MethodPost, "/api/parse", parseRequest{Kind: "martian", Query: "x"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/parse", strings.NewReader("{bad json"))
	recBad := httptest.NewRecorder()
	s.ServeHTTP(recBad, req)
	if recBad.Code != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", recBad.Code)
	}
}

func TestSearchEndToEnd(t *testing.T) {
	s := testServer(t)
	req := searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
		Dataset:      "demo", Z: "z", X: "x", Y: "y", K: 2,
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].Z != "peak" {
		t.Fatalf("top = %s", resp.Results[0].Z)
	}
	if len(resp.Results[0].X) == 0 || len(resp.Results[0].BreakXs) == 0 {
		t.Fatal("series data missing")
	}

	// maxPoints 1 echoes each series' first point, in the single-query and
	// the batch form alike.
	single := req
	single.MaxPoints = 1
	batch := searchRequest{
		Queries: []parseRequest{req.parseRequest},
		Dataset: "demo", Z: "z", X: "x", Y: "y", K: 2, MaxPoints: 1,
	}
	for _, body := range []searchRequest{single, batch} {
		rec := doJSON(t, s, http.MethodPost, "/api/search", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("maxPoints 1: status = %d: %s", rec.Code, rec.Body.String())
		}
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		results := resp.Results
		if len(body.Queries) > 0 {
			if len(resp.Queries) != 1 {
				t.Fatalf("maxPoints 1 batch: %d query results, want 1", len(resp.Queries))
			}
			results = resp.Queries[0].Results
		}
		if len(results) != 2 {
			t.Fatalf("maxPoints 1: results = %+v", results)
		}
		for _, res := range results {
			if len(res.X) != 1 || len(res.Y) != 1 || res.X[0] != 0 {
				t.Fatalf("maxPoints 1: %s echoed x=%v y=%v, want its first point", res.Z, res.X, res.Y)
			}
		}
	}
}

// TestSearchNonFiniteReply: a dataset whose y holds Inf uploads, and a
// search over it answers 200: extraction drops the Inf row, so the reply
// carries no value JSON cannot encode.
func TestSearchNonFiniteReply(t *testing.T) {
	s := testServer(t)
	csv := "z,x,y\na,0,0\na,1,Inf\na,2,0\nb,0,1\nb,1,3\nb,2,1\n"
	req := httptest.NewRequest(http.MethodPost, "/api/datasets/inf", strings.NewReader(csv))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = doJSON(t, s, http.MethodPost, "/api/search", searchRequest{
		parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
		Dataset:      "inf", Z: "z", X: "x", Y: "y",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %q", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	points := make(map[string][]float64)
	for _, r := range resp.Results {
		points[r.Z] = r.X
	}
	// Extraction drops the row whose y is Inf, as it drops NaN rows.
	if a, b := points["a"], points["b"]; len(a) != 2 || a[0] != 0 || a[1] != 2 || len(b) != 3 {
		t.Fatalf("series x values = %v, want a without its Inf row and b whole", points)
	}
}

// TestWriteJSONNonFinite: a reply JSON cannot encode is a 500 with a JSON
// error, never a 200 with an empty body.
func TestWriteJSONNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"score": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %q", rec.Code, rec.Body.String())
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body %q is not a JSON error (%v)", rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestSearchNLQuery(t *testing.T) {
	s := testServer(t)
	req := searchRequest{
		parseRequest: parseRequest{Kind: "nl", Query: "rising then falling"},
		Dataset:      "demo", Z: "z", X: "x", Y: "y",
	}
	rec := doJSON(t, s, http.MethodPost, "/api/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Z != "peak" {
		t.Fatalf("top = %s", resp.Results[0].Z)
	}
}

func TestSearchErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		req  searchRequest
		code int
	}{
		{
			"missing dataset",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "ghost", Z: "z", X: "x", Y: "y"},
			http.StatusNotFound,
		},
		{
			"bad query",
			searchRequest{parseRequest: parseRequest{Query: "["}, Dataset: "demo", Z: "z", X: "x", Y: "y"},
			http.StatusUnprocessableEntity,
		},
		{
			"bad column",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "demo", Z: "ghost", X: "x", Y: "y"},
			http.StatusBadRequest,
		},
		{
			"bad algorithm",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "demo", Z: "z", X: "x", Y: "y", Algorithm: "quantum"},
			http.StatusBadRequest,
		},
		{
			"bad agg",
			searchRequest{parseRequest: parseRequest{Query: "u"}, Dataset: "demo", Z: "z", X: "x", Y: "y", Agg: "median"},
			http.StatusBadRequest,
		},
	}
	for _, c := range cases {
		rec := doJSON(t, s, http.MethodPost, "/api/search", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
	}
}

func TestSearchWithFilterAndAlgorithms(t *testing.T) {
	s := testServer(t)
	for _, alg := range []string{"auto", "dp", "segmenttree", "greedy", "dtw", "euclidean"} {
		req := searchRequest{
			parseRequest: parseRequest{Kind: "regex", Query: "u ; d"},
			Dataset:      "demo", Z: "z", X: "x", Y: "y",
			Algorithm: alg,
			Filters:   []filterSpec{{Col: "y", Op: "<=", Num: 100}},
		}
		rec := doJSON(t, s, http.MethodPost, "/api/search", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", alg, rec.Code, rec.Body.String())
		}
	}
}

func TestDownsample(t *testing.T) {
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 2
	}
	dx, dy := downsample(x, y, 100)
	if len(dx) != 100 || len(dy) != 100 {
		t.Fatalf("len = %d, %d", len(dx), len(dy))
	}
	if dx[0] != 0 {
		t.Fatal("first point must be kept")
	}
	sx, sy := downsample(x[:50], y[:50], 100)
	if len(sx) != 50 || len(sy) != 50 {
		t.Fatal("short series should pass through")
	}
	_ = fmt.Sprintf("%v", dy)
	// Both endpoints survive every thinning: a float step once rounded the
	// last index one short (length 16 at n 12 ended at index 14).
	for length := 3; length <= 300; length++ {
		for n := 2; n < length; n++ {
			dx, dy := downsample(x[:length], y[:length], n)
			if len(dx) != n || len(dy) != n {
				t.Fatalf("length %d, n %d: got %d points", length, n, len(dx))
			}
			if dx[0] != 0 || dx[n-1] != float64(length-1) || dy[n-1] != y[length-1] {
				t.Fatalf("length %d, n %d: endpoints x %v..%v, want 0..%d", length, n, dx[0], dx[n-1], length-1)
			}
		}
	}
}
