// Package nlparser translates natural-language queries ("show me genes
// that are rising, then going down, and then increasing") into ShapeQuery
// trees, implementing Section 4 of the paper: POS-based noise filtering, a
// CRF (or rule-based) shape-entity tagger with the Table 3 feature set,
// synonym/semantic value mapping, ShapeQuery tree generation through the
// algebra's grammar, and the Table 4 ambiguity resolution rules.
package nlparser

import (
	"shapesearch/internal/pos"
	"shapesearch/internal/text"
)

// Entity labels assigned to tokens. EntNoise is the background class.
const (
	EntPattern = "P"   // pattern word: rising, falling, stable, peak…
	EntMod     = "M"   // modifier word: sharply, gradually, at least…
	EntCount   = "CNT" // occurrence count: twice, 2 (peaks)
	EntXS      = "XS"  // x start value
	EntXE      = "XE"  // x end value
	EntYS      = "YS"  // y start value
	EntYE      = "YE"  // y end value
	EntWidth   = "W"   // window width value
	EntConcat  = "CAT" // sequence connective: then, followed by…
	EntAnd     = "AND"
	EntOr      = "OR"
	EntNot     = "NOT"
	EntNoise   = "O"
)

// TaggedToken pairs a token with its POS tag and entity label — the
// intermediate representation shown in the correction panel.
type TaggedToken struct {
	Token  text.Token
	POS    pos.Tag
	Entity string
}

// Tagger assigns entity labels to a token sequence.
type Tagger interface {
	Tag(tokens []text.Token, tags []pos.Tag) []string
}
