package regexlang

import (
	"math/rand"
	"testing"

	"shapesearch/internal/shape"
)

// FuzzParse: no input panics the parser, and every input that parses and
// validates formats to text that parses back to the same tree. The seeds
// are TestRoundTrip's random queries, TestIdempotentFormat's inputs and
// non-ASCII identifiers and bytes.
func FuzzParse(f *testing.F) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		q := shape.Query{Root: randomQuery(r, 3)}
		if q.Validate() == nil {
			f.Add(q.String())
		}
	}
	for _, in := range formatInputs {
		f.Add(in)
	}
	for _, in := range []string{"[p=café]", "[p=über]", "\xc0"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if err != nil || q.Validate() != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) formats as %q, which does not parse: %v", in, text, err)
		}
		if !back.Root.Equal(q.Root) {
			t.Fatalf("Parse(%q) formats as %q, which parses to a different tree: %s", in, text, back.String())
		}
	})
}
