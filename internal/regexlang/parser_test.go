package regexlang

import (
	"math/rand"
	"strings"
	"testing"

	"shapesearch/internal/shape"
)

func mustParse(t *testing.T, s string) shape.Query {
	t.Helper()
	q, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return q
}

func TestParseSimpleSegments(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String form
	}{
		{"[p=up]", "[p=up]"},
		{"[p=down]", "[p=down]"},
		{"[p=flat]", "[p=flat]"},
		{"[p=45]", "[p=45]"},
		{"[p=-20]", "[p=-20]"},
		{"[p=*]", "[p=*]"},
		{"[x.s=2, x.e=5, p=up]", "[x.s=2, x.e=5, p=up]"},
		{"[x.s=2,x.e=10,y.s=10,y.e=100]", "[x.s=2, x.e=10, y.s=10, y.e=100]"},
		{"[p=up, m=>>]", "[p=up, m=>>]"},
		{"[p=up, m={2,}]", "[p=up, m={2,}]"},
		{"[p=up, m={,2}]", "[p=up, m={,2}]"},
		{"[p=up, m={2,5}]", "[p=up, m={2,5}]"},
		{"[p=up, m=2]", "[p=up, m={2}]"},
		{"[p=up, m={3}]", "[p=up, m={3}]"},
		{"[x.s=., x.e=.+3, p=up]", "[x.s=., x.e=.+3, p=up]"},
		{"[p=$0, m=<]", "[p=$0, m=<]"},
		{"[p=$-, m=>]", "[p=$-, m=>]"},
		{"[p=$+]", "[p=$+]"},
		{"[p=up, m=<0.5]", "[p=up, m=<0.5]"},
		{"[p=up, m=>2]", "[p=up, m=>2]"},
		{"[v=(2:10,3:14,10:100)]", "[v=(2:10,3:14,10:100)]"},
		{"[p=myshape]", "[p=myshape]"},
		{"[p=café]", "[p=café]"},
		{"[p=über]", "[p=über]"},
	}
	for _, c := range cases {
		q := mustParse(t, c.in)
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseOperators(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"[p=up][p=down]", "[p=up][p=down]"},
		{"[p=up] ⊗ [p=down]", "[p=up][p=down]"},
		{"[p=up] ; [p=down] ; [p=up]", "[p=up][p=down][p=up]"},
		{"[p=up] & [p=down]", "[p=up] & [p=down]"},
		{"[p=up] ⊙ [p=down]", "[p=up] & [p=down]"},
		{"[p=up] | [p=down]", "[p=up] | [p=down]"},
		{"[p=up] ⊕ [p=down]", "[p=up] | [p=down]"},
		{"![p=flat]", "![p=flat]"},
		{"!([p=up][p=down])", "!([p=up][p=down])"},
		{"[p=up]([p=flat] | [p=down][p=up])", "[p=up]([p=flat] | [p=down][p=up])"},
		{"[p=up] and [p=down]", "[p=up] & [p=down]"},
		{"[p=up] or [p=down]", "[p=up] | [p=down]"},
	}
	for _, c := range cases {
		q := mustParse(t, c.in)
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBareShorthands(t *testing.T) {
	q := mustParse(t, "u ; d ; u ; d")
	if got := q.String(); got != "[p=up][p=down][p=up][p=down]" {
		t.Errorf("got %q", got)
	}
	q = mustParse(t, "theta=45 ; d ; u ; d")
	if got := q.String(); got != "[p=45][p=down][p=up][p=down]" {
		t.Errorf("got %q", got)
	}
	// Table 11 style with unicode glyphs and degree sign.
	q = mustParse(t, "(θ = 45° ⊗ d ⊗ u ⊗ d)")
	if got := q.String(); got != "[p=45][p=down][p=up][p=down]" {
		t.Errorf("got %q", got)
	}
	q = mustParse(t, "(d ⊗ (θ = 45° ⊕ θ = -20°) ⊗ f)")
	if got := q.String(); got != "[p=down]([p=45] | [p=-20])[p=flat]" {
		t.Errorf("got %q", got)
	}
}

func TestParsePaperTable11Queries(t *testing.T) {
	// All fuzzy and non-fuzzy queries from Table 11 must parse.
	queries := []string{
		"(θ = 45° ⊗ d ⊗ u ⊗ d)",
		"((u ⊕ d) ⊗ f ⊗ u ⊗ d)",
		"(f ⊗ u ⊗ d ⊗ f)",
		"(d ⊗ (θ = 45° ⊕ θ = -20°) ⊗ f)",
		"(d ⊗ θ = 45° ⊗ d)",
		"(u ⊗ d ⊗ u)",
		"(d ⊗ (u ⊕ (f ⊗ d)))",
		"((u ⊕ d) ⊗ (u ⊕ d) ⊗ f)",
		"(f ⊗ d ⊗ u ⊗ f)",
		"(u ⊗ d ⊗ u ⊗ f)",
		"(u ⊗ f ⊗ ((θ = 45° ⊗ θ = 60°) ⊕ (u ⊗ d)))",
		"(u ⊗ d ⊗ f ⊗ u)",
		"(d ⊗ u ⊗ d ⊗ f)",
		"[p{down},x.s = 1,x.e = 4] ⊗ [p{up},x.s = 4,x.e = 10] ⊗ [p{down},x.s = 10,x.e = 12]",
		"[p{down},x.s = 50,x.e = 100]",
		"[p{down},x.s = 200,x.e = 400] ⊗ [p{up},x.s = 800,x.e = 850]",
		"[p{up},x.s = 60,x.e = 80]",
	}
	for _, s := range queries {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
	}
}

func TestParseNestedPattern(t *testing.T) {
	// The nesting example from Section 3.2.
	in := "[x.s=2, x.e=10, p=[[x.s=., x.e=.+4, p=[[p=up][p=down]]]]]"
	q := mustParse(t, in)
	segs := q.Root.Segments()
	if len(segs) != 1 {
		t.Fatalf("expected 1 top-level segment, got %d", len(segs))
	}
	if segs[0].Pat.Kind != shape.PatNested {
		t.Fatal("expected nested pattern")
	}
	inner := segs[0].Pat.Sub
	if inner.Kind != shape.NodeSegment || inner.Seg.Pat.Kind != shape.PatNested {
		t.Fatal("expected doubly nested pattern")
	}
	if !inner.Seg.Loc.HasIterator() {
		t.Fatal("inner segment should carry the iterator")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "expected a shape expression"},
		{"[", "expected"},
		{"[p=up", "expected ']'"},
		{"[q=up]", "unknown segment primitive"},
		{"[p=up] extra ]", "unexpected"},
		{"[p=up] @", "unexpected character"},
		{"[m=>>]", "no pattern"},
		{"[p=95]", "slope pattern must be in (-90, 90)"},
		{"[x.s=5, x.e=2, p=up]", "must not exceed"},
		{"[p=$x]", "expected segment index"},
		{"[p=up, m={5,2}]", "min (5) exceeds max (2)"},
		{"[v=(1:2,", "expected"},
		{"((u)", "expected ')'"},
		{"[p=up, m={1.5}]", "integer count"},
		{"u ⊗", "expected a shape expression"},
		{"[x.s=.+2, x.e=.+3, p=up]", "must not carry an offset"},
		{"\xc0", "invalid UTF-8"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.in, err, c.want)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	for _, c := range []struct {
		in  string
		pos int
	}{{"[p=up] @", 7}, {"\xc0", 0}, {"[p=up] \xc0", 7}} {
		_, err := Parse(c.in)
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Fatalf("Parse(%q): expected *SyntaxError, got %T", c.in, err)
		}
		if se.Pos != c.pos {
			t.Errorf("Parse(%q): error position = %d, want %d", c.in, se.Pos, c.pos)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("[")
}

// randomQuery builds a random valid query tree for round-trip testing.
func randomQuery(r *rand.Rand, depth int) *shape.Node {
	if depth <= 0 || r.Intn(3) == 0 {
		return randomSegment(r)
	}
	n := 2 + r.Intn(2)
	children := make([]*shape.Node, n)
	for i := range children {
		children[i] = randomQuery(r, depth-1)
	}
	switch r.Intn(4) {
	case 0:
		return shape.Concat(children...)
	case 1:
		return shape.And(children...)
	case 2:
		return shape.Or(children...)
	default:
		return shape.Not(children[0])
	}
}

func randomSegment(r *rand.Rand) *shape.Node {
	var seg shape.Segment
	switch r.Intn(5) {
	case 0:
		seg.Pat = shape.Pattern{Kind: shape.PatUp}
	case 1:
		seg.Pat = shape.Pattern{Kind: shape.PatDown}
	case 2:
		seg.Pat = shape.Pattern{Kind: shape.PatFlat}
	case 3:
		seg.Pat = shape.Pattern{Kind: shape.PatSlope, Slope: float64(r.Intn(170)-85) / 2}
	case 4:
		seg.Pat = shape.Pattern{Kind: shape.PatUDP, Name: "shapea"}
	}
	if r.Intn(3) == 0 {
		a := float64(r.Intn(50))
		seg.Loc.XS = shape.Lit(a)
		seg.Loc.XE = shape.Lit(a + 1 + float64(r.Intn(50)))
	}
	switch r.Intn(4) {
	case 0:
		seg.Mod = shape.Modifier{Kind: shape.ModMuchMore}
	case 1:
		seg.Mod = shape.Modifier{Kind: shape.ModQuantifier, Min: 1 + r.Intn(3), HasMin: true}
	case 2:
		seg.Mod = shape.Modifier{Kind: shape.ModLessFactor, Factor: 0.5}
	}
	return shape.Seg(seg)
}

// TestRoundTrip: for random valid queries, Parse(q.String()) must reproduce
// the identical tree. This pins the formatter and parser to each other.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		orig := shape.Query{Root: randomQuery(r, 3)}
		if orig.Validate() != nil {
			continue
		}
		text := orig.String()
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("round-trip parse of %q failed: %v", text, err)
		}
		if !parsed.Root.Equal(orig.Root) {
			t.Fatalf("round-trip mismatch:\n orig: %s\n back: %s", text, parsed.String())
		}
	}
}

// formatInputs are queries whose String form must re-parse to itself.
var formatInputs = []string{
	"u;d;u",
	"[p=up, m={2,}] & ![p=flat]",
	"(u | d) ; f",
	"[x.s=., x.e=.+3, p=up]",
	"[v=(0:1,1:5,2:3)]",
	"[p=$0, m=<0.5]",
}

// TestIdempotentFormat: String of a parsed query re-parses to the same string.
func TestIdempotentFormat(t *testing.T) {
	for _, in := range formatInputs {
		q := mustParse(t, in)
		s1 := q.String()
		q2 := mustParse(t, s1)
		if s2 := q2.String(); s1 != s2 {
			t.Errorf("format not idempotent: %q -> %q", s1, s2)
		}
	}
}

func TestParseWhitespaceRobust(t *testing.T) {
	a := mustParse(t, "[p=up][p=down]")
	b := mustParse(t, "  [ p = up ]\n\t[ p = down ]  ")
	if !a.Root.Equal(b.Root) {
		t.Error("whitespace should not affect parsing")
	}
}

func TestParseOptional(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"u?", "[p=up]?"},
		{"u? ; d", "[p=up]?[p=down]"},
		{"u?;d;u?;d;u?", "[p=up]?[p=down][p=up]?[p=down][p=up]?"},
		{"(u;d)? ; f", "([p=up][p=down])?[p=flat]"},
		{"[p=up, m=>>]? ; d", "[p=up, m=>>]?[p=down]"},
	}
	for _, c := range cases {
		q := mustParse(t, c.in)
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form reparses to the same tree.
		rt := mustParse(t, q.String())
		if !rt.Root.Equal(q.Root) {
			t.Errorf("%q: canonical form %q does not round-trip", c.in, q.String())
		}
	}
	// The expansion itself: u?;d yields the with- and without-u chains.
	n, err := shape.Normalize(mustParse(t, "u? ; d"))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Alternatives) != 2 {
		t.Fatalf("u?;d normalized to %d alternatives, want 2", len(n.Alternatives))
	}
	// A dangling ? with nothing to modify is a syntax error.
	if _, err := Parse("? ; d"); err == nil {
		t.Error("leading '?' must not parse")
	}
}
