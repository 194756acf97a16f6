package nlparser

import (
	"shapesearch/internal/crf"
	"shapesearch/internal/pos"
	"shapesearch/internal/shape"
	"shapesearch/internal/text"
)

// ParseInfo carries the intermediate parse state shown in the correction
// panel: per-token entity tags and the ambiguity resolutions that were
// applied.
type ParseInfo struct {
	Tagged      []TaggedToken
	Resolutions []string
}

// Parser translates natural-language queries into ShapeQueries.
type Parser struct {
	tagger Tagger
}

// NewParser returns a parser using the deterministic rule tagger — the
// no-training default.
func NewParser() *Parser { return &Parser{tagger: RuleTagger{}} }

// NewParserWithModel returns a parser backed by a trained CRF tagger.
func NewParserWithModel(m *crf.Model) *Parser {
	return &Parser{tagger: CRFTagger{Model: m}}
}

// Parse runs the full pipeline: tokenize → POS tag → entity tagging →
// grouping into ShapeSegments → ambiguity resolution → tree generation.
func (p *Parser) Parse(query string) (shape.Query, *ParseInfo, error) {
	tokens := text.Tokenize(query)
	tags := pos.TagTokens(tokens)
	entities := p.tagger.Tag(tokens, tags)
	tagged := make([]TaggedToken, len(tokens))
	for i := range tokens {
		tagged[i] = TaggedToken{Token: tokens[i], POS: tags[i], Entity: entities[i]}
	}
	asm := assemble(tagged)
	asm.resolve()
	q, err := asm.build()
	info := &ParseInfo{Tagged: tagged, Resolutions: asm.resolutions}
	if err != nil {
		return shape.Query{}, info, err
	}
	return q, info, nil
}

// TrainCRF trains a CRF tagger from labeled sequences (for example the
// synthetic corpus from GenerateCorpus) and returns the model.
func TrainCRF(seqs []crf.Sequence, cfg crf.TrainConfig) (*crf.Model, error) {
	return crf.Train(seqs, cfg)
}

// SequenceFor converts a raw query plus gold entity labels into a CRF
// training sequence using the Table 3 features.
func SequenceFor(query string, labels []string) crf.Sequence {
	tokens := text.Tokenize(query)
	tags := pos.TagTokens(tokens)
	return crf.Sequence{Features: Features(tokens, tags), Labels: labels}
}
