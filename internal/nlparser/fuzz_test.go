package nlparser

import (
	"testing"

	"shapesearch/internal/executor"
)

// nlPhrases are the hand-written phrases the parser's tests and the
// serving benchmark send.
var nlPhrases = []string{
	"rising",
	"rising then falling",
	"falling then rising then falling",
	"show me genes that are rising, then going down, and then increasing",
	"show me stocks that are falling",
	"stable trends",
	"find genes increasing sharply",
	"declining gradually",
	"find objects with a sharp peak in luminosity",
	"show me trends with a dip",
	"rising from 2 to 5 and then falling",
	"temperature rises from november to january",
	"stocks with at least 2 peaks",
	"genes that rise twice",
	"at most 3 dips",
	"cities with maximum rise in temperature over a span of 3 months",
	"genes that are up-regulated or down-regulated",
	"trends that are not flat",
	"increasing from 4 to 8 then decreasing from 8 to 0",
	"rising and then sharply , falling",
	"hello world nothing here",
	// Once parsed to an AND over a CONCAT chain, which does not compile.
	"falling and not flat then rising",
}

// FuzzNLParse: no text panics the natural-language parser, and every query
// it parses without error is one the engine accepts: it validates and
// compiles under the default options. The seeds are the synthetic training
// corpus and the phrases above; a crasher found by `go test -fuzz` is
// committed under testdata/fuzz, which every go test then runs.
func FuzzNLParse(f *testing.F) {
	for _, lq := range GenerateCorpus(200, 1) {
		f.Add(lq.Query)
	}
	for _, in := range nlPhrases {
		f.Add(in)
	}
	p := NewParser()
	f.Fuzz(func(t *testing.T, in string) {
		q, _, err := p.Parse(in)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("Parse(%q) = %s, which does not validate: %v", in, q, err)
		}
		if _, err := executor.Compile(q, executor.DefaultOptions()); err != nil {
			t.Fatalf("Parse(%q) = %s, which does not compile: %v", in, q, err)
		}
	})
}
