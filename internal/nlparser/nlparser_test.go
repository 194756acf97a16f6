package nlparser

import (
	"strings"
	"testing"

	"shapesearch/internal/crf"
	"shapesearch/internal/shape"
	"shapesearch/internal/text"
)

func parseNL(t *testing.T, q string) shape.Query {
	t.Helper()
	query, info, err := NewParser().Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v (info: %+v)", q, err, info)
	}
	return query
}

func TestParseSequence(t *testing.T) {
	// The flagship example from the paper's introduction.
	q := parseNL(t, "show me genes that are rising, then going down, and then increasing")
	want := "[p=up][p=down][p=up]"
	if got := q.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestParseSingle(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"rising", "[p=up]"},
		{"show me stocks that are falling", "[p=down]"},
		{"stable trends", "[p=flat]"},
		{"find genes increasing sharply", "[p=up, m=>>]"},
		{"declining gradually", "[p=down, m=<]"},
		{"find objects with a sharp peak in luminosity", "[p=[[p=up][p=down]], m=>>]"},
		{"show me trends with a dip", "[p=[[p=down][p=up]]]"},
	}
	for _, c := range cases {
		q := parseNL(t, c.in)
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseLocations(t *testing.T) {
	q := parseNL(t, "rising from 2 to 5 and then falling")
	want := "[x.s=2, x.e=5, p=up][p=down]"
	if got := q.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	// Months map onto numeric coordinates (the Sydney example). November
	// (11) to January (1) is an inverted x range; Table 4 rule 3 resolves
	// it — for a rising pattern the y reading conflicts too, so the
	// endpoints are swapped.
	_, info, err := NewParser().Parse("temperature rises from november to january")
	if err != nil {
		t.Fatal(err)
	}
	q, _, err = NewParser().Parse("temperature rises from november to january")
	if err != nil {
		t.Fatal(err)
	}
	segs := q.Root.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %d", len(segs))
	}
	if !segs[0].Loc.XS.Set || segs[0].Loc.XS.Value != 1 || segs[0].Loc.XE.Value != 11 {
		t.Errorf("resolved months = %+v / %+v (resolutions %v)", segs[0].Loc.XS, segs[0].Loc.XE, info.Resolutions)
	}
	if len(info.Resolutions) == 0 {
		t.Error("expected a rule-3 resolution log entry")
	}
}

func TestParseQuantifier(t *testing.T) {
	q := parseNL(t, "stocks with at least 2 peaks")
	want := "[p=up, m={2,}]"
	if got := q.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	q = parseNL(t, "genes that rise twice")
	if got := q.String(); got != "[p=up, m={2}]" {
		t.Errorf("got %q", got)
	}
	q = parseNL(t, "at most 3 dips")
	if got := q.String(); got != "[p=down, m={,3}]" {
		t.Errorf("got %q", got)
	}
}

func TestParseWidth(t *testing.T) {
	q := parseNL(t, "cities with maximum rise in temperature over a span of 3 months")
	segs := q.Root.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %d: %s", len(segs), q)
	}
	if !segs[0].Loc.HasIterator() {
		t.Fatalf("expected iterator location, got %s", q)
	}
	if segs[0].Loc.XE.IterOffset != 3 {
		t.Errorf("width = %v, want 3", segs[0].Loc.XE.IterOffset)
	}
	if segs[0].Pat.Kind != shape.PatUp {
		t.Errorf("pattern = %v", segs[0].Pat.Kind)
	}
}

func TestParseOrAndNot(t *testing.T) {
	q := parseNL(t, "genes that are up-regulated or down-regulated")
	if got := q.String(); got != "[p=up] | [p=down]" {
		t.Errorf("got %q", got)
	}
	q = parseNL(t, "trends that are not flat")
	if got := q.String(); got != "![p=flat]" {
		t.Errorf("got %q", got)
	}
	// "and" joins the patterns of one step: an AND over the CONCAT of the
	// later steps could not be segmented.
	q = parseNL(t, "falling and not flat then rising")
	if got := q.String(); got != "([p=down] & ![p=flat])[p=up]" {
		t.Errorf("got %q", got)
	}
}

func TestAmbiguityRule1MultipleP(t *testing.T) {
	// Two patterns with no connective: the second moves into its own step.
	_, info, err := NewParser().Parse("rising falling trends")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range info.Resolutions {
		if strings.Contains(r, "split") || strings.Contains(r, "moved extra pattern") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected rule-1 resolution, got %v", info.Resolutions)
	}
}

func TestAmbiguityRule2DanglingModifier(t *testing.T) {
	// "sharply" separated from its pattern by a connective.
	q, info, err := NewParser().Parse("rising and then sharply , falling")
	if err != nil {
		t.Fatalf("%v (%v)", err, info)
	}
	// The modifier must attach to a segment with a pattern.
	str := q.String()
	if !strings.Contains(str, "m=") {
		t.Errorf("modifier lost: %q (resolutions %v)", str, info.Resolutions)
	}
}

func TestAmbiguityRule3InvertedX(t *testing.T) {
	// "decreasing from 8 to 2": inverted x range reinterpreted as y values.
	q := parseNL(t, "decreasing from 8 to 2")
	segs := q.Root.Segments()
	seg := segs[0]
	if seg.Loc.XS.Set {
		t.Fatalf("x should have moved to y: %s", q)
	}
	if !seg.Loc.YS.Set || seg.Loc.YS.Value != 8 || !seg.Loc.YE.Set || seg.Loc.YE.Value != 2 {
		t.Fatalf("y = %+v / %+v", seg.Loc.YS, seg.Loc.YE)
	}
	// "increasing from 9 to 3" has no consistent y reading: swap instead.
	q = parseNL(t, "increasing from 9 to 3")
	seg = q.Root.Segments()[0]
	if !seg.Loc.XS.Set || seg.Loc.XS.Value != 3 || seg.Loc.XE.Value != 9 {
		t.Fatalf("expected swapped x, got %s", q)
	}
}

func TestAmbiguityRule4Overlap(t *testing.T) {
	// "increasing from 4 to 8 then decreasing from 8 to 0": the second
	// range is inverted; after rule 3 it becomes y values, which is the
	// Table 4 resolution for the overlap example.
	q := parseNL(t, "increasing from 4 to 8 then decreasing from 8 to 0")
	segs := q.Root.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %d: %s", len(segs), q)
	}
	second := segs[1]
	if !second.Loc.YS.Set || second.Loc.YS.Value != 8 || second.Loc.YE.Value != 0 {
		t.Fatalf("second segment = %s", q)
	}
}

func TestParseNoEntities(t *testing.T) {
	if _, _, err := NewParser().Parse("hello world nothing here"); err == nil {
		t.Fatal("gibberish should fail to parse")
	}
	if _, _, err := NewParser().Parse(""); err == nil {
		t.Fatal("empty query should fail")
	}
}

func TestParseInfoTagging(t *testing.T) {
	_, info, err := NewParser().Parse("rising then falling")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Tagged) != 3 {
		t.Fatalf("tagged = %d", len(info.Tagged))
	}
	if info.Tagged[0].Entity != EntPattern || info.Tagged[1].Entity != EntConcat || info.Tagged[2].Entity != EntPattern {
		t.Fatalf("entities = %v %v %v", info.Tagged[0].Entity, info.Tagged[1].Entity, info.Tagged[2].Entity)
	}
}

func TestGenerateCorpusAligned(t *testing.T) {
	corpus := GenerateCorpus(250, 42)
	if len(corpus) != 250 {
		t.Fatalf("corpus size = %d", len(corpus))
	}
	for i, lq := range corpus {
		toks := text.Tokenize(lq.Query)
		if len(toks) != len(lq.Labels) {
			t.Fatalf("example %d: %d tokens vs %d labels (%q)", i, len(toks), len(lq.Labels), lq.Query)
		}
	}
	// Corpus must exercise a healthy variety of entity labels.
	seen := map[string]bool{}
	for _, lq := range corpus {
		for _, l := range lq.Labels {
			seen[l] = true
		}
	}
	for _, l := range []string{EntPattern, EntMod, EntConcat, EntXS, EntXE, EntWidth, EntCount, EntNoise} {
		if !seen[l] {
			t.Errorf("label %s never generated", l)
		}
	}
}

// TestCRFTaggerEndToEnd trains on the synthetic corpus and checks the CRF
// tagger reaches strong F1 on held-out data and can drive the parser. This
// is the miniature version of the paper's 81% F1 experiment; the harness in
// internal/experiments runs the full 5-fold version.
func TestCRFTaggerEndToEnd(t *testing.T) {
	corpus := GenerateCorpus(150, 7)
	split := 120
	cfg := crf.DefaultTrainConfig()
	cfg.Iterations = 12
	model, err := TrainCRF(ToSequences(corpus[:split]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Evaluate(ToSequences(corpus[split:]), EntNoise)
	if m.F1 < 0.75 {
		t.Fatalf("held-out F1 = %.3f, want >= 0.75", m.F1)
	}
	// The CRF-backed parser handles the flagship query.
	p := NewParserWithModel(model)
	q, _, err := p.Parse("show me genes that are rising , then falling")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.String(); got != "[p=up][p=down]" {
		t.Errorf("CRF parse = %q", got)
	}
}

func TestCrossValidate(t *testing.T) {
	corpus := GenerateCorpus(60, 13)
	cfg := crf.DefaultTrainConfig()
	cfg.Iterations = 6
	m, err := CrossValidate(corpus, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.F1 <= 0.5 || m.F1 > 1 {
		t.Fatalf("cross-validated F1 = %v", m.F1)
	}
}
