package nlparser

import (
	"math/rand"
	"strconv"
	"strings"

	"shapesearch/internal/crf"
)

// LabeledQuery is one training example: a natural-language query and a gold
// entity label per token.
type LabeledQuery struct {
	Query  string
	Labels []string
}

// GenerateCorpus synthesizes n labeled natural-language queries in the
// style of the paper's Mechanical Turk corpus: crowd-worker-like phrasings
// of pattern sequences with varying noise words, connectives, modifiers,
// locations, widths and quantifiers. It substitutes for the unavailable
// 250-query MTurk dataset; the paper's experiment needs
// only the entity/noise structure, which these templates reproduce.
func GenerateCorpus(n int, seed int64) []LabeledQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]LabeledQuery, 0, n)
	for len(out) < n {
		out = append(out, generateOne(rng))
	}
	return out
}

// wl is a word with its gold label.
type wl struct{ w, l string }

func generateOne(rng *rand.Rand) LabeledQuery {
	var parts []wl
	parts = append(parts, prefix(rng)...)
	steps := 1 + rng.Intn(3)
	for s := 0; s < steps; s++ {
		if s > 0 {
			parts = append(parts, connective(rng)...)
		}
		parts = append(parts, step(rng)...)
	}
	if rng.Intn(4) == 0 {
		parts = append(parts, suffix(rng)...)
	}
	words := make([]string, len(parts))
	labels := make([]string, len(parts))
	for i, p := range parts {
		words[i] = p.w
		labels[i] = p.l
	}
	return LabeledQuery{Query: strings.Join(words, " "), Labels: labels}
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func noise(words ...string) []wl {
	out := make([]wl, len(words))
	for i, w := range words {
		out[i] = wl{w, EntNoise}
	}
	return out
}

func prefix(rng *rand.Rand) []wl {
	options := [][]wl{
		noise("show", "me", "genes", "that", "are"),
		noise("find", "stocks", "that", "are"),
		noise("i", "want", "cities", "where", "temperature", "is"),
		noise("display", "products", "with", "sales"),
		noise("find", "objects", "whose", "luminosity", "is"),
		noise("which", "trends", "are"),
		{},
	}
	return pick(rng, options)
}

func suffix(rng *rand.Rand) []wl {
	options := [][]wl{
		noise("over", "the", "year"),
		noise("in", "the", "data"),
		noise("please"),
	}
	return pick(rng, options)
}

func connective(rng *rand.Rand) []wl {
	options := [][]wl{
		{{",", EntNoise}, {"then", EntConcat}},
		{{"and", EntNoise}, {"then", EntConcat}},
		{{"followed", EntConcat}, {"by", EntNoise}},
		{{"then", EntConcat}},
		{{"next", EntConcat}},
		{{"and", EntAnd}},
		{{"or", EntOr}},
		{{"and", EntNoise}, {"afterwards", EntConcat}},
	}
	return pick(rng, options)
}

var patternWords = map[string][]string{
	"up":     {"rising", "increasing", "growing", "climbing", "going-up", "rises", "increases"},
	"down":   {"falling", "decreasing", "declining", "dropping", "falls", "decreases"},
	"flat":   {"stable", "flat", "steady", "constant", "plateau"},
	"peak":   {"peak", "spike", "peaks", "spikes"},
	"valley": {"dip", "valley", "trough", "dips"},
}

func step(rng *rand.Rand) []wl {
	var parts []wl
	kindRoll := rng.Intn(10)
	switch {
	case kindRoll < 6: // plain pattern, optionally modified / located
		if rng.Intn(3) == 0 {
			parts = append(parts, wl{pick(rng, []string{"sharply", "rapidly", "gradually", "slowly", "steeply"}), EntMod})
		}
		dir := pick(rng, []string{"up", "down", "flat"})
		parts = append(parts, wl{pick(rng, patternWords[dir]), EntPattern})
		switch rng.Intn(4) {
		case 0:
			parts = append(parts, location(rng)...)
		case 1:
			parts = append(parts, width(rng)...)
		}
	case kindRoll < 8: // quantified occurrence: "at least 2 peaks"
		switch rng.Intn(3) {
		case 0:
			parts = append(parts, noise("at")...)
			parts = append(parts, wl{"least", EntMod})
		case 1:
			parts = append(parts, noise("at")...)
			parts = append(parts, wl{"most", EntMod})
		default:
			if rng.Intn(2) == 0 {
				parts = append(parts, wl{"exactly", EntMod})
			}
		}
		cnt := 1 + rng.Intn(4)
		parts = append(parts, wl{strconv.Itoa(cnt), EntCount})
		kind := pick(rng, []string{"peak", "valley"})
		parts = append(parts, wl{pick(rng, patternWords[kind]), EntPattern})
		if rng.Intn(3) == 0 {
			parts = append(parts, width(rng)...)
		}
	case kindRoll < 9: // "rises twice"
		dir := pick(rng, []string{"up", "down"})
		parts = append(parts, wl{pick(rng, patternWords[dir]), EntPattern})
		parts = append(parts, wl{pick(rng, []string{"twice", "thrice"}), EntCount})
	default: // negated pattern
		parts = append(parts, wl{"not", EntNot})
		parts = append(parts, wl{pick(rng, patternWords["flat"]), EntPattern})
	}
	return parts
}

func location(rng *rand.Rand) []wl {
	a := rng.Intn(50)
	b := a + 1 + rng.Intn(50)
	sa, sb := strconv.Itoa(a), strconv.Itoa(b)
	options := [][]wl{
		{{"from", EntNoise}, {sa, EntXS}, {"to", EntNoise}, {sb, EntXE}},
		{{"between", EntNoise}, {sa, EntXS}, {"and", EntNoise}, {sb, EntXE}},
		{{"from", EntNoise}, {"x", EntNoise}, {"=", EntNoise}, {sa, EntXS},
			{"to", EntNoise}, {"x", EntNoise}, {"=", EntNoise}, {sb, EntXE}},
		{{"from", EntNoise}, {pickMonth(rng, 1), EntXS}, {"to", EntNoise}, {pickMonth(rng, 7), EntXE}},
	}
	return pick(rng, options)
}

func pickMonth(rng *rand.Rand, base int) string {
	months := []string{"january", "february", "march", "april", "may", "june",
		"july", "august", "september", "october", "november", "december"}
	return months[(base-1+rng.Intn(3))%12]
}

func width(rng *rand.Rand) []wl {
	w := 2 + rng.Intn(9)
	sw := strconv.Itoa(w)
	unit := pick(rng, []string{"months", "days", "weeks", "points"})
	options := [][]wl{
		{{"over", EntNoise}, {"a", EntNoise}, {"span", EntWidth}, {"of", EntNoise},
			{sw, EntWidth}, {unit, EntNoise}},
		{{"within", EntNoise}, {sw, EntWidth}, {unit, EntNoise}},
		{{"over", EntNoise}, {sw, EntWidth}, {unit, EntNoise}},
	}
	return pick(rng, options)
}

// ToSequences converts labeled queries into CRF training sequences.
func ToSequences(corpus []LabeledQuery) []crf.Sequence {
	seqs := make([]crf.Sequence, 0, len(corpus))
	for _, lq := range corpus {
		seqs = append(seqs, SequenceFor(lq.Query, lq.Labels))
	}
	return seqs
}

// CrossValidate trains and evaluates with k-fold cross validation,
// returning the averaged metrics — the paper's protocol for its 81% F1
// measurement.
func CrossValidate(corpus []LabeledQuery, folds int, cfg crf.TrainConfig) (crf.Metrics, error) {
	if folds < 2 {
		folds = 5
	}
	seqs := ToSequences(corpus)
	var sum crf.Metrics
	for f := 0; f < folds; f++ {
		var train, test []crf.Sequence
		for i, s := range seqs {
			if i%folds == f {
				test = append(test, s)
			} else {
				train = append(train, s)
			}
		}
		model, err := crf.Train(train, cfg)
		if err != nil {
			return crf.Metrics{}, err
		}
		m := model.Evaluate(test, EntNoise)
		sum.Precision += m.Precision
		sum.Recall += m.Recall
		sum.F1 += m.F1
		sum.Accuracy += m.Accuracy
	}
	n := float64(folds)
	return crf.Metrics{
		Precision: sum.Precision / n,
		Recall:    sum.Recall / n,
		F1:        sum.F1 / n,
		Accuracy:  sum.Accuracy / n,
	}, nil
}
