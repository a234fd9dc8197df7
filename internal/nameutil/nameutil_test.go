package nameutil

import (
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Telenor Norge AS", "telenor norge"},
		{"Transamerican Telecomunication S.A.", "transamerican telecomunication"},
		{"Telekom Malaysia Berhad", "telekom malaysia"},
		{"PT Telekomunikasi Indonesia Tbk", "pt telekomunikasi indonesia"},
		{"OOREDOO  Q.S.C", "ooredoo"},
		{"Rostelecom PJSC", "rostelecom"},
		{"Telecomunicación Nacional", "telecomunicacion nacional"},
		{"", ""},
	}
	for _, tc := range cases {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSuffixOnlyNameSurvives(t *testing.T) {
	// A name consisting solely of a legal-suffix word must not normalize
	// to empty (e.g., a company literally named "Group").
	if got := Normalize("Group"); got != "group" {
		t.Errorf("Normalize(Group) = %q", got)
	}
}

func TestSimilarityKnownPairs(t *testing.T) {
	high := [][2]string{
		{"Telenor Norge AS", "Telenor"},
		{"Angola Cables S.A.", "Angola Cables"},
		{"Telekom Malaysia Berhad", "Telekom Malaysia"},
		{"SingTel Optus Pty Limited", "Optus"},
		{"Empresa Nacional de Telecomunicaciones", "Empresa Nacional de Telecomunicaciones S.A."},
	}
	for _, p := range high {
		if s := Similarity(p[0], p[1]); s < 0.6 {
			t.Errorf("Similarity(%q, %q) = %f, want >= 0.6", p[0], p[1], s)
		}
	}
	low := [][2]string{
		{"Rostelecom", "Angola Cables"},
		{"China Telecom", "Deutsche Telekom"}, // shared generic token only
		{"BSCCL", "ETECSA"},
	}
	for _, p := range low {
		if s := Similarity(p[0], p[1]); s > 0.75 {
			t.Errorf("Similarity(%q, %q) = %f, want < 0.75", p[0], p[1], s)
		}
	}
}

func TestJaro(t *testing.T) {
	if j := Jaro("martha", "marhta"); j < 0.94 || j > 0.95 {
		t.Errorf("Jaro(martha, marhta) = %f, want ~0.944", j)
	}
	if j := Jaro("abc", "abc"); j != 1 {
		t.Errorf("identical strings Jaro = %f", j)
	}
	if j := Jaro("abc", "xyz"); j != 0 {
		t.Errorf("disjoint strings Jaro = %f", j)
	}
	if j := Jaro("", "abc"); j != 0 {
		t.Errorf("empty string Jaro = %f", j)
	}
}

func TestJaroWinklerPrefixBoost(t *testing.T) {
	base := Jaro("ooredoo", "ooredoo tunisie")
	jw := JaroWinkler("ooredoo", "ooredoo tunisie")
	if jw <= base {
		t.Errorf("JaroWinkler %f should exceed Jaro %f for shared prefix", jw, base)
	}
}

// Properties: similarity is symmetric, bounded, and reflexive on non-empty
// normalized names.
func TestSimilarityProperties(t *testing.T) {
	names := []string{
		"Telenor Norge AS", "SingTel", "China Telecom", "Ooredoo Q.S.C",
		"ARSAT", "ANTEL", "Angola Cables", "Viettel Group", "BSCCL",
		"Etisalat", "Vodafone Fiji", "TTK", "Exatel S.A.",
	}
	f := func(i, j uint8) bool {
		a := names[int(i)%len(names)]
		b := names[int(j)%len(names)]
		sab, sba := Similarity(a, b), Similarity(b, a)
		if sab != sba {
			return false
		}
		if sab < 0 || sab > 1 {
			return false
		}
		return Similarity(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenSetGenericDownweight(t *testing.T) {
	// Names sharing only generic tokens must score low.
	s := TokenSetSimilarity("National Telecom Network", "Global Telecom Services")
	if s > 0.3 {
		t.Errorf("generic-only overlap scored %f", s)
	}
	// Names sharing a distinctive token must score clearly higher.
	s2 := TokenSetSimilarity("Internexa Brasil", "Internexa S.A.")
	if s2 <= s {
		t.Errorf("distinctive overlap %f not above generic overlap %f", s2, s)
	}
}

func TestDiacriticsFolding(t *testing.T) {
	if Similarity("Türk Telekomünikasyon", "Turk Telekomunikasyon") < 0.95 {
		t.Error("diacritic variants should match nearly perfectly")
	}
}
