package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newlines reads as n bytes of line breaks, CRLF pairs ending in "\r\n":
// blank CSV lines, or JSON whitespace, that pad a body to a chosen size
// without holding it in memory. Two bytes per CSV line halve the parse
// work of "\n" alone.
type newlines struct{ n int }

func (r *newlines) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.n)
	for i := range p[:k] {
		if (r.n-i)%2 == 1 {
			p[i] = '\n'
		} else {
			p[i] = '\r'
		}
	}
	r.n -= k
	return k, nil
}

// paddedBody is head, then newlines, then tail, size bytes in all.
func paddedBody(head, tail string, size int) io.Reader {
	return io.MultiReader(strings.NewReader(head), &newlines{n: size - len(head) - len(tail)}, strings.NewReader(tail))
}

// postBody sends body to path as one request.
func postBody(s *Server, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

// requireTooLarge checks a 413 reply with a JSON error.
func requireTooLarge(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %.200s", rec.Code, rec.Body.String())
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("413 reply is not a JSON error: %.200s (%v)", rec.Body.String(), err)
	}
}

// checkBodyLimit sends head+padding+tail at exactly limit bytes, which must
// get the status ok, and one byte past it, which must get 413.
func checkBodyLimit(t *testing.T, s *Server, path, head, tail string, limit, ok int) {
	t.Helper()
	if rec := postBody(s, path, paddedBody(head, tail, limit)); rec.Code != ok {
		t.Fatalf("%s at its %d-byte limit: status = %d, want %d: %.200s", path, limit, rec.Code, ok, rec.Body.String())
	}
	requireTooLarge(t, postBody(s, path, paddedBody(head, tail, limit+1)))
}

// checkJSONBodyLimit is checkBodyLimit for a JSON endpoint, plus the
// padding after the value: within the limit it is whitespace and accepted,
// past it 413, and data after the value is a 400.
func checkJSONBodyLimit(t *testing.T, path, head string, limit int) {
	t.Helper()
	s := testServer(t)
	checkBodyLimit(t, s, path, head, "}", limit, http.StatusOK)
	checkBodyLimit(t, s, path, head+"}", "", limit, http.StatusOK)
	if rec := postBody(s, path, strings.NewReader(head+"} trailing")); rec.Code != http.StatusBadRequest {
		t.Fatalf("%s with data after the JSON value: status = %d, want 400: %.200s", path, rec.Code, rec.Body.String())
	}
}

func TestSearchBodyLimit(t *testing.T) {
	checkJSONBodyLimit(t, "/api/search", `{"kind":"regex","query":"u ; d","dataset":"demo","z":"z","x":"x","y":"y","k":2`, maxSearchBody)
}

func TestParseBodyLimit(t *testing.T) {
	checkJSONBodyLimit(t, "/api/parse", `{"kind":"regex","query":"u ; d"`, maxParseBody)
}

func TestAppendBodyLimit(t *testing.T) {
	s := testServer(t)
	checkBodyLimit(t, s, "/api/append?dataset=demo", "z,x,y\nrise,9,9\n", "", maxAppendBody, http.StatusOK)
	// Only the at-limit delta landed: 18 registered rows plus one.
	if rows := s.indexes["demo"].NumRows(); rows != 19 {
		t.Fatalf("demo holds %d rows after one accepted and one refused append, want 19", rows)
	}
}

func TestUploadBodyLimit(t *testing.T) {
	s := testServer(t)
	checkBodyLimit(t, s, "/api/datasets/demo", "z,x,y\na,0,0\na,1,9\n", "", maxUploadBody, http.StatusCreated)
	// The refused upload did not replace the accepted one.
	if rows := s.indexes["demo"].NumRows(); rows != 2 {
		t.Fatalf("demo holds %d rows, want the accepted upload's 2", rows)
	}
}
