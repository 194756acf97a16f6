package text

import "sort"

// EntityValue names a canonical shape-entity value the lexicon can map
// words onto: pattern values, modifier values, operator connectives and
// structural markers.
type EntityValue string

// Canonical entity values. Pattern values mirror Table 1; operator
// connectives cover how crowd workers phrase them (Section 4's synonym
// lists, e.g. "increasing" for up and "next" for CONCAT).
const (
	ValUp       EntityValue = "up"
	ValDown     EntityValue = "down"
	ValFlat     EntityValue = "flat"
	ValPeak     EntityValue = "peak"   // nested up⊗down
	ValValley   EntityValue = "valley" // nested down⊗up
	ValSharp    EntityValue = "sharp"
	ValGradual  EntityValue = "gradual"
	ValConcat   EntityValue = "concat"
	ValAnd      EntityValue = "and"
	ValOr       EntityValue = "or"
	ValNot      EntityValue = "not"
	ValAtLeast  EntityValue = "atleast"
	ValAtMost   EntityValue = "atmost"
	ValExactly  EntityValue = "exactly"
	ValTwice    EntityValue = "twice"
	ValThrice   EntityValue = "thrice"
	ValStart    EntityValue = "start" // "beginning", anchors x.s
	ValEnd      EntityValue = "end"
	ValWidth    EntityValue = "width" // window/span markers
	ValSimilarD EntityValue = "similar"
)

// synonyms maps each canonical value to the word forms observed for it.
var synonyms = map[EntityValue][]string{
	ValUp: {"up", "increase", "increasing", "increases", "increased", "rise", "rising", "rises", "rose",
		"grow", "growing", "grows", "grew", "growth", "climb", "climbing", "climbs", "upward", "upwards",
		"ascend", "ascending", "gain", "gaining", "up-regulated", "upregulated", "improve", "improving", "recover", "recovering"},
	ValDown: {"down", "decrease", "decreasing", "decreases", "decreased", "fall", "falling", "falls", "fell",
		"drop", "dropping", "drops", "dropped", "decline", "declining", "declines", "downward", "downwards",
		"descend", "descending", "shrink", "shrinking", "reduce", "reducing", "down-regulated", "downregulated",
		"lose", "losing", "sink", "sinking"},
	ValFlat: {"flat", "stable", "stabilize", "stabilized", "stabilizes", "steady", "constant", "plateau",
		"plateaus", "unchanged", "still", "level", "flatten", "flattens", "flattening", "stagnant"},
	ValPeak:   {"peak", "peaks", "peaked", "spike", "spikes", "spiked", "top", "tops", "summit", "bump", "bumps"},
	ValValley: {"valley", "valleys", "dip", "dips", "dipped", "trough", "troughs", "bottom", "bottoms", "crater"},
	ValSharp: {"sharp", "sharply", "steep", "steeply", "rapid", "rapidly", "quick", "quickly", "sudden",
		"suddenly", "drastic", "drastically", "fast", "abrupt", "abruptly", "strong", "strongly"},
	ValGradual: {"gradual", "gradually", "slow", "slowly", "gentle", "gently", "mild", "mildly", "slight", "slightly", "steadily"},
	ValConcat: {"then", "next", "after", "afterwards", "followed", "following", "later", "subsequently",
		"before", "thereafter"},
	ValAnd:      {"and", "also", "both", "while", "simultaneously", "plus"},
	ValOr:       {"or", "either", "alternatively"},
	ValNot:      {"not", "no", "never", "without", "except"},
	ValAtLeast:  {"atleast", "least", "minimum", "more"},
	ValAtMost:   {"atmost", "most", "maximum", "fewer", "less"},
	ValExactly:  {"exactly", "precisely"},
	ValTwice:    {"twice", "two"},
	ValThrice:   {"thrice", "three"},
	ValStart:    {"start", "starting", "beginning", "begin", "begins", "initially", "first"},
	ValEnd:      {"end", "ending", "ends", "finally", "last", "eventually"},
	ValWidth:    {"span", "window", "width", "duration", "period", "interval"},
	ValSimilarD: {"similar", "same", "like", "matching", "resembling"},
}

// Synonyms returns the word forms for a canonical value.
func Synonyms(v EntityValue) []string { return synonyms[v] }

// synsetIDs assigns concept identifiers to words: words sharing a concept
// are semantically related. This is the embedded stand-in for the WordNet
// synset lookup the paper uses ([39]); it covers the trendline vocabulary.
var synsetIDs = map[string][]int{}

func init() {
	// Build synsets from the synonym table: every canonical value is one
	// concept; a few cross-concept links add graded similarity.
	concept := 0
	order := make([]EntityValue, 0, len(synonyms))
	for v := range synonyms {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, v := range order {
		for _, w := range synonyms[v] {
			synsetIDs[w] = append(synsetIDs[w], concept)
		}
		concept++
	}
	// Cross-links: peaks involve rising, valleys involve falling; sharp
	// movements relate to both directions.
	link := func(v EntityValue, extra EntityValue) {
		id := conceptOf(order, extra)
		for _, w := range synonyms[v] {
			synsetIDs[w] = append(synsetIDs[w], id)
		}
	}
	link(ValPeak, ValUp)
	link(ValValley, ValDown)
	link(ValTwice, ValExactly)
	link(ValThrice, ValExactly)
}

func conceptOf(order []EntityValue, v EntityValue) int {
	for i, o := range order {
		if o == v {
			return i
		}
	}
	return -1
}

// SemanticSimilarity returns the Jaccard overlap of the two words' synsets
// in [0, 1] — the semantic fallback when edit distance is inconclusive.
// Unknown words have similarity 0.
func SemanticSimilarity(a, b string) float64 {
	sa, sb := synsetIDs[a], synsetIDs[b]
	if len(sa) == 0 {
		sa = synsetIDs[Stem(a)]
	}
	if len(sb) == 0 {
		sb = synsetIDs[Stem(b)]
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter, union := 0, len(sa)
	for _, idB := range sb {
		found := false
		for _, idA := range sa {
			if idA == idB {
				found = true
				break
			}
		}
		if found {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// MatchValue resolves a word to the best canonical value among candidates,
// following the paper's two-step rule: the value whose synonym list has the
// lowest normalized edit distance wins if that distance is at most 0.1 (or
// an exact stem match); otherwise the value with the highest average
// semantic similarity wins, provided it is positive.
func MatchValue(word string, candidates []EntityValue) (EntityValue, bool) {
	word = normalizeWord(word)
	stem := Stem(word)
	bestVal, bestDist := EntityValue(""), 1e9
	bestRawVal, bestRaw := EntityValue(""), 1<<30
	for _, v := range candidates {
		for _, syn := range synonyms[v] {
			// The first pair at distance 0 wins: no later pair can beat
			// it, so the scan stops there.
			r := EditDistance(word, syn)
			d := normalizeDistance(r, word, syn)
			if d == 0 {
				return v, true
			}
			if d < bestDist {
				bestDist, bestVal = d, v
			}
			sd := NormalizedEditDistance(stem, Stem(syn))
			if sd == 0 {
				return v, true
			}
			if sd < bestDist {
				bestDist, bestVal = sd, v
			}
			if r < bestRaw {
				bestRaw, bestRawVal = r, v
			}
		}
	}
	if bestDist <= 0.1 {
		return bestVal, true
	}
	// The paper also accepts close raw matches (edit distance ≤ 2); for
	// words of 5+ letters a single raw edit is a typo, not a new word
	// (shorter words collide too easily: "show" vs "slow").
	if bestRaw <= 1 && len(word) >= 5 {
		return bestRawVal, true
	}
	bestVal, bestSim := EntityValue(""), 0.0
	for _, v := range candidates {
		var total float64
		for _, syn := range synonyms[v] {
			total += SemanticSimilarity(word, syn)
		}
		if len(synonyms[v]) == 0 {
			continue
		}
		if avg := total / float64(len(synonyms[v])); avg > bestSim {
			bestSim, bestVal = avg, v
		}
	}
	if bestSim > 0 {
		return bestVal, true
	}
	return "", false
}

func normalizeWord(w string) string {
	// Hyphen variants collapse: up-regulated / upregulated.
	out := make([]rune, 0, len(w))
	for _, r := range w {
		if r == '\'' {
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

// MonthNumber maps month names to 1–12, used for queries like "rising from
// November to January".
func MonthNumber(w string) (float64, bool) {
	months := map[string]float64{
		"january": 1, "jan": 1, "february": 2, "feb": 2, "march": 3, "mar": 3,
		"april": 4, "apr": 4, "may": 5, "june": 6, "jun": 6, "july": 7, "jul": 7,
		"august": 8, "aug": 8, "september": 9, "sep": 9, "sept": 9,
		"october": 10, "oct": 10, "november": 11, "nov": 11, "december": 12, "dec": 12,
	}
	n, ok := months[w]
	return n, ok
}

// SmallNumber maps number words to values ("one" … "ten", "twice" → 2).
func SmallNumber(w string) (float64, bool) {
	nums := map[string]float64{
		"zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
		"six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
		"once": 1, "twice": 2, "thrice": 3,
	}
	n, ok := nums[w]
	return n, ok
}
