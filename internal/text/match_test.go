package text

import (
	"sort"
	"strings"
	"testing"
)

// fullScanMatchValue is MatchValue as it was before the scan stopped at
// the first exact match, on the edit distances it used then: the oracle
// TestMatchValueMatchesFullScan holds MatchValue to.
func fullScanMatchValue(word string, candidates []EntityValue) (EntityValue, bool) {
	word = normalizeWord(word)
	bestVal, bestDist := EntityValue(""), 1e9
	bestRawVal, bestRaw := EntityValue(""), 1<<30
	for _, v := range candidates {
		for _, syn := range synonyms[v] {
			d := fullScanNormalizedEditDistance(word, syn)
			if d < bestDist {
				bestDist, bestVal = d, v
			}
			if sd := fullScanNormalizedEditDistance(Stem(word), Stem(syn)); sd < bestDist {
				bestDist, bestVal = sd, v
			}
			if r := fullScanEditDistance(word, syn); r < bestRaw {
				bestRaw, bestRawVal = r, v
			}
		}
	}
	if bestDist <= 0.1 {
		return bestVal, true
	}
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

// fullScanEditDistance is the Levenshtein distance on []rune conversions
// and freshly made rows.
func fullScanEditDistance(a, b string) int {
	if a == b {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func fullScanNormalizedEditDistance(a, b string) float64 {
	avg := float64(len([]rune(a))+len([]rune(b))) / 2
	if avg == 0 {
		return 0
	}
	return float64(fullScanEditDistance(a, b)) / avg
}

// oneEditVariants returns w with its middle rune deleted, its first rune
// substituted, a rune inserted at its end and its first two runes swapped.
func oneEditVariants(w string) []string {
	r := []rune(w)
	if len(r) < 2 {
		return []string{w + "e", "x" + w}
	}
	mid := len(r) / 2
	swapped := append([]rune{r[1], r[0]}, r[2:]...)
	return []string{
		string(r[:mid]) + string(r[mid+1:]),
		"x" + string(r[1:]),
		w + "e",
		string(swapped),
	}
}

// TestMatchValueMatchesFullScan: stopping at the first exact match must
// not change what MatchValue chooses, over every lexicon synonym, its stem
// and one-edit variants of it, plus words only the semantic fallback or
// nothing matches, against every candidate list the NL parser passes and
// the whole lexicon in two orders.
func TestMatchValueMatchesFullScan(t *testing.T) {
	var all []EntityValue
	for v := range synonyms {
		all = append(all, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	reversed := make([]EntityValue, len(all))
	for i, v := range all {
		reversed[len(all)-1-i] = v
	}
	lists := [][]EntityValue{
		all,
		reversed,
		{ValUp, ValDown, ValFlat, ValPeak, ValValley},
		{ValSharp, ValGradual},
		{ValUp, ValDown, ValFlat, ValPeak, ValValley, ValSharp, ValGradual, ValConcat, ValAnd, ValOr,
			ValNot, ValAtLeast, ValAtMost, ValExactly, ValWidth},
		{ValWidth},
		{ValPeak, ValValley},
	}
	words := []string{"", "summit", "xylophone", "risin", "up's", "café", "Rising", "un-changed",
		strings.Repeat("increasing", 4)}
	for _, v := range all {
		for _, syn := range synonyms[v] {
			words = append(words, syn, Stem(syn))
			words = append(words, oneEditVariants(syn)...)
		}
	}
	for _, cands := range lists {
		for _, w := range words {
			got, gotOK := MatchValue(w, cands)
			want, wantOK := fullScanMatchValue(w, cands)
			if got != want || gotOK != wantOK {
				t.Fatalf("MatchValue(%q, %v) = %q, %v; the full scan chose %q, %v", w, cands, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestEditDistanceMatchesFullScan: the stack-buffer distances equal the
// []rune forms, on multibyte runes and on words past the stack buffers.
func TestEditDistanceMatchesFullScan(t *testing.T) {
	long := strings.Repeat("décroissant", 4) // 44 runes
	words := []string{"", "a", "up", "rising", "risin", "café", "cafe", "über", "\xff\xfe", long, long[:len(long)-1] + "x",
		strings.Repeat("u", editMaxStack), strings.Repeat("u", editMaxStack+1)}
	for _, a := range words {
		for _, b := range words {
			if got, want := EditDistance(a, b), fullScanEditDistance(a, b); got != want {
				t.Fatalf("EditDistance(%q, %q) = %d, want %d", a, b, got, want)
			}
			if got, want := NormalizedEditDistance(a, b), fullScanNormalizedEditDistance(a, b); got != want {
				t.Fatalf("NormalizedEditDistance(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}
