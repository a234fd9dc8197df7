package nameutil

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzSimilarity checks the similarity metric's contract on arbitrary
// inputs: bounded, symmetric, and reflexive for non-empty normalized
// names — the properties the pipeline's matching logic relies on.
func FuzzSimilarity(f *testing.F) {
	seeds := [][2]string{
		{"Telenor Norge AS", "Telenor"},
		{"Ooredoo Q.S.C", "Ooredoo Tunisie"},
		{"", ""},
		{"S.A.", "AS"},
		{"日本電信電話", "NTT"},
		{"a", "b"},
		{"   ", "\t\n"},
		{"Très Télécom", "Tres Telecom"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if !utf8.ValidString(a) || !utf8.ValidString(b) {
			return
		}
		sab := Similarity(a, b)
		if sab < 0 || sab > 1 {
			t.Fatalf("Similarity(%q,%q) = %v out of [0,1]", a, b, sab)
		}
		if sba := Similarity(b, a); sab != sba {
			t.Fatalf("asymmetric: %v vs %v for %q/%q", sab, sba, a, b)
		}
		if Normalize(a) != "" && Similarity(a, a) != 1 {
			t.Fatalf("non-reflexive for %q", a)
		}
	})
}

// FuzzSearchName drives the name-matching path — tokenization,
// normalization, similarity scoring — with one arbitrary query, enforcing
// the invariants the AS-to-company mapper and the serve index's fuzzy
// search rely on: no panics, tokens lower-cased and whitespace-free,
// idempotent normalization, similarity scores in [0,1].
func FuzzSearchName(f *testing.F) {
	for _, seed := range []string{
		"Telecom Argentina S.A.",
		"S.A.",
		"TELEKOM SRBIJA a.d.",
		"Türk Telekomünikasyon A.Ş.",
		"中国电信",
		"Ooredoo Q.S.C.",
		"   ",
		"",
		"a",
		"café-net GmbH & Co. KG",
		"\xff\xfe invalid utf8",
		strings.Repeat("ab ", 50),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		toks := Tokens(name)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("Tokens(%q) produced an empty token: %q", name, toks)
			}
			if strings.ContainsFunc(tok, unicode.IsSpace) {
				t.Fatalf("Tokens(%q) produced a token with whitespace: %q", name, tok)
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("Tokens(%q) produced a non-lower-cased token: %q", name, tok)
			}
		}

		norm := Normalize(name)
		if got := Normalize(norm); got != norm {
			t.Fatalf("Normalize not idempotent on %q: %q -> %q", name, norm, got)
		}

		for _, other := range []string{"Telecom Argentina S.A.", "Antel", name} {
			if s := Similarity(name, other); s < 0 || s > 1 {
				t.Fatalf("Similarity(%q, %q) = %v out of [0,1]", name, other, s)
			}
		}
	})
}

// FuzzTokens checks the normalizer never panics and produces no empty
// tokens.
func FuzzTokens(f *testing.F) {
	for _, s := range []string{"PT Telekomunikasi Indonesia Tbk", "Q.S.C", "a.b.c", "...", "ÆØÅ A/S"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range Tokens(s) {
			if tok == "" {
				t.Fatalf("empty token from %q", s)
			}
		}
	})
}

// FuzzPreparedMatchesReference holds the prepared comparisons to the
// pre-change string functions on arbitrary name pairs.
func FuzzPreparedMatchesReference(f *testing.F) {
	for _, a := range edgeNames {
		f.Add(a, "Telecom Argentina S.A.")
	}
	f.Add("Telecom Telecom", "Telecom")
	f.Add("a Nigeria b", "ab")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkPrepared(t, a, b)
	})
}

// FuzzRetokenize holds Retokenize to its contract: for any name and any
// subsequence of its tokens (the mask picks which survive, as stripping
// a country's words does), finishing the subsequence equals tokenizing
// it joined by spaces, and for a non-empty subsequence (an empty one
// finishes to nil, not to Tokens' empty slice) PrepareTokens over that
// equals Prepare.
func FuzzRetokenize(f *testing.F) {
	for _, seed := range []struct {
		name string
		mask uint64
	}{
		{"Mobile Co Nigeria", 0b011},
		{"a Nigeria b", 0b101},
		{"Telecom Nigeria Ltd", 0b101},
		{"S.A. Nigeria Q.S.C", 0b101},
		{"Türk Telekomünikasyon A.Ş.", 0b111},
		{"İstanbul ǅemal Ⅻ", 0b110},
		{"", 0},
	} {
		f.Add(seed.name, seed.mask)
	}
	f.Fuzz(func(t *testing.T, name string, mask uint64) {
		var kept []string
		for i, tok := range Tokens(name) {
			if i >= 64 || mask&(1<<i) != 0 {
				kept = append(kept, tok)
			}
		}
		joined := strings.Join(kept, " ")
		want := Tokens(joined)
		if got := Retokenize(append([]string(nil), kept...)); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("Retokenize(%q) = %q, Tokens of the joined string = %q", kept, got, want)
		}
		if len(kept) == 0 {
			return
		}
		if got, want := PrepareTokens(Retokenize(kept)), Prepare(joined); !reflect.DeepEqual(got, want) {
			t.Fatalf("PrepareTokens = %+v, Prepare = %+v", got, want)
		}
	})
}
