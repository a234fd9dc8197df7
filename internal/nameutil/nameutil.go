// Package nameutil implements the company-name normalization and fuzzy
// matching the pipeline's AS-to-company mapping stage relies on (§4.2 of
// the paper).
//
// WHOIS records carry legal names ("Transamerican Telecomunication S.A."),
// PeeringDB carries brand names ("Internexa"), and documentary sources use
// yet other variants. Matching across them requires stripping legal-form
// suffixes, normalizing case/punctuation/diacritics, and scoring partial
// matches with token-set and Jaro–Winkler similarity.
package nameutil

import (
	"sort"
	"strings"
	"unicode"
)

// legalSuffixes lists corporate legal-form tokens that are dropped during
// normalization. The set spans the jurisdictions that appear in the paper
// (S.A., AS, Berhad, PJSC, ...) plus common English forms.
var legalSuffixes = map[string]bool{
	"inc": true, "incorporated": true, "corp": true, "corporation": true,
	"co": true, "company": true, "ltd": true, "limited": true, "llc": true,
	"plc": true, "gmbh": true, "ag": true, "sa": true, "sas": true,
	"sarl": true, "srl": true, "spa": true, "bv": true, "nv": true,
	"as": true, "asa": true, "ab": true, "oy": true, "oyj": true,
	"aps": true, "jsc": true, "ojsc": true, "pjsc": true, "cjsc": true,
	"pt": true, "tbk": true, "persero": true, "berhad": true, "bhd": true,
	"sdn": true, "pte": true, "pvt": true, "pty": true, "kk": true,
	"sae": true, "saoc": true, "saog": true, "psc": true, "qsc": true,
	"jllc": true, "ooo": true, "pao": true, "zao": true, "ead": true,
	"doo": true, "dd": true, "ad": true, "sp": true, "zoo": true,
	"group": true, "holding": true, "holdings": true, "intl": true,
	"international": true,
}

// genericTokens are words so common in operator names that they carry
// little identity signal; they are kept in normalization output but
// down-weighted by TokenSetSimilarity.
var genericTokens = map[string]bool{
	"telecom": true, "telecommunications": true, "telekom": true,
	"telecomunicaciones": true, "telecomunication": true, "telco": true,
	"communications": true, "comm": true, "net": true, "networks": true,
	"network": true, "internet": true, "broadband": true, "cable": true,
	"mobile": true, "wireless": true, "digital": true, "data": true,
	"services": true, "national": true, "global": true, "the": true,
	"of": true, "and": true, "de": true, "du": true, "la": true,
}

// foldRune maps accented Latin letters onto their ASCII base so that
// "Telecomunicación" and "Telecomunicacion" normalize identically.
func foldRune(r rune) rune {
	switch r {
	case 'á', 'à', 'â', 'ä', 'ã', 'å':
		return 'a'
	case 'é', 'è', 'ê', 'ë':
		return 'e'
	case 'í', 'ì', 'î', 'ï':
		return 'i'
	case 'ó', 'ò', 'ô', 'ö', 'õ', 'ø':
		return 'o'
	case 'ú', 'ù', 'û', 'ü':
		return 'u'
	case 'ñ':
		return 'n'
	case 'ç':
		return 'c'
	case 'ş', 'š', 'ś':
		return 's'
	case 'ž', 'ź', 'ż':
		return 'z'
	case 'ć', 'č':
		return 'c'
	case 'ğ':
		return 'g'
	case 'ı':
		return 'i'
	case 'ð':
		return 'd'
	case 'þ':
		return 't'
	case 'æ':
		return 'a'
	case 'œ':
		return 'o'
	case 'ß':
		return 's'
	}
	return r
}

// Tokens splits a raw name into normalized tokens: lower-cased, diacritics
// folded, punctuation removed, and trailing legal-form suffixes dropped.
func Tokens(name string) []string {
	lower := strings.ToLower(name)
	var b strings.Builder
	for _, r := range lower {
		r = foldRune(r)
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return Retokenize(strings.Fields(b.String()))
}

// Retokenize finishes a list of words the way Tokens finishes a name's:
// it collapses runs of single-letter words and drops trailing legal
// suffixes, reusing fields' storage. Given tokens Tokens produced, or a
// subsequence of them, it returns Tokens(strings.Join(fields, " "))
// without scanning the joined string again: those tokens are already
// lower-cased, folded and made of letters and digits only, and lower-
// casing and folding leave such a token as it is. Removing tokens can
// bring single letters together or expose a legal suffix at the tail,
// which is why a shortened list needs this pass.
func Retokenize(fields []string) []string {
	// Collapse runs of single-letter tokens produced by dotted
	// abbreviations: "S.A." -> "sa", "Q.S.C" -> "qsc". Without this the
	// suffix-stripping below cannot recognize dotted legal forms.
	collapsed := fields[:0]
	for i := 0; i < len(fields); {
		if len(fields[i]) == 1 {
			j := i
			var run strings.Builder
			for j < len(fields) && len(fields[j]) == 1 {
				run.WriteString(fields[j])
				j++
			}
			if j-i > 1 {
				collapsed = append(collapsed, run.String())
				i = j
				continue
			}
		}
		collapsed = append(collapsed, fields[i])
		i++
	}
	fields = collapsed
	// Drop legal suffixes from the tail only: "AS" at the end of
	// "Telenor Norge AS" is a legal form; "AS" elsewhere could be a name.
	for len(fields) > 1 && legalSuffixes[fields[len(fields)-1]] {
		fields = fields[:len(fields)-1]
	}
	return fields
}

// Normalize returns the canonical single-string form of a name: its
// normalized tokens joined by single spaces.
func Normalize(name string) string { return strings.Join(Tokens(name), " ") }

// Name is a name prepared for repeated comparison: its normalized form
// plus its distinct tokens, sorted, with their token-set weights, all
// built from one Tokens call. Prepare each name once and compare the
// prepared forms; a Name is immutable and safe to share.
type Name struct {
	// Norm is the normalized form, as Normalize returns it.
	Norm string
	// Tokens are the name's distinct normalized tokens in ascending
	// order.
	Tokens  []string
	weights []float64 // aligned with Tokens
	total   float64   // sum of weights
}

// Prepare tokenizes a raw name once into its comparable form.
func Prepare(name string) Name { return PrepareTokens(Tokens(name)) }

// PrepareTokens is Prepare over a name already split by Tokens (or
// finished by Retokenize): PrepareTokens(Tokens(name)) == Prepare(name).
// It sorts toks in place.
func PrepareTokens(toks []string) Name {
	n := Name{Norm: strings.Join(toks, " ")}
	sort.Strings(toks)
	distinct := toks[:0]
	for _, t := range toks {
		if len(distinct) == 0 || t != distinct[len(distinct)-1] {
			distinct = append(distinct, t)
		}
	}
	n.Tokens = distinct
	n.weights = make([]float64, len(distinct))
	for i, t := range distinct {
		n.weights[i] = tokenWeight(t)
		n.total += n.weights[i]
	}
	return n
}

// tokenWeight is a token's share of a name's identity: distinctive tokens
// weigh 1.0, generic industry tokens 0.25. Every weight sum is therefore
// a multiple of 0.25 and exact in any summation order.
func tokenWeight(tok string) float64 {
	if genericTokens[tok] {
		return 0.25
	}
	return 1.0
}

// TokenSetSimilarity scores two names in [0,1] by weighted token overlap.
// Distinctive tokens weigh 1.0; generic industry tokens weigh 0.25. Two
// names with no distinctive overlap score near zero even if both contain
// "telecom".
func (a Name) TokenSetSimilarity(b Name) float64 {
	if len(a.Tokens) == 0 || len(b.Tokens) == 0 {
		return 0
	}
	// Both token lists are sorted and distinct: merge them.
	var inter float64
	for i, j := 0, 0; i < len(a.Tokens) && j < len(b.Tokens); {
		switch {
		case a.Tokens[i] < b.Tokens[j]:
			i++
		case a.Tokens[i] > b.Tokens[j]:
			j++
		default:
			inter += a.weights[i]
			i++
			j++
		}
	}
	wA, wB := a.total, b.total
	union := wA + wB - inter
	if union == 0 {
		return 0
	}
	jaccard := inter / union
	// Containment handles brand-vs-legal asymmetry: "Optus" is fully
	// contained in "SingTel Optus Pty Limited". Discounted so that exact
	// matches still rank above containments.
	minW := wA
	if wB < minW {
		minW = wB
	}
	containment := 0.0
	if minW > 0 {
		containment = 0.8 * inter / minW
	}
	if containment > jaccard {
		return containment
	}
	return jaccard
}

// Jaro computes the Jaro similarity of two strings in [0,1].
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	// Names fit the fixed buffers, which stay on the stack; only longer
	// strings allocate.
	var bufA, bufB [64]bool
	matchA, matchB := bufA[:], bufB[:]
	if la > len(bufA) {
		matchA = make([]bool, la)
	}
	if lb > len(bufB) {
		matchB = make([]bool, lb)
	}
	var matches int
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || a[i] != b[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	var transpositions, k int
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[k] {
			k++
		}
		if a[i] != b[k] {
			transpositions++
		}
		k++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix,
// which suits brand names that differ only in suffix ("Ooredoo" vs
// "Ooredoo Tunisie").
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && a[prefix] == b[prefix] && prefix < 4 {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Similarity is the pipeline's combined name-match score: the maximum of
// the token-set score and the Jaro–Winkler score of the normalized forms.
// Token-set handles word reordering and legal suffixes; Jaro–Winkler
// handles small spelling variants.
func (a Name) Similarity(b Name) float64 {
	if a.Norm == "" || b.Norm == "" {
		return 0
	}
	ts := a.TokenSetSimilarity(b)
	jw := JaroWinkler(a.Norm, b.Norm)
	if ts > jw {
		return ts
	}
	return jw
}
