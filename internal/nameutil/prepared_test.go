package nameutil

import (
	"strings"
	"testing"

	"stateowned/internal/ccodes"
	"stateowned/internal/orbis"
	"stateowned/internal/peeringdb"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// edgeNames are names the generated worlds may not contain: repeated
// tokens (the prepared form keeps each token once), names that normalize
// to "", dotted legal forms, country words, diacritics, and names longer
// than Jaro's stack buffers.
var edgeNames = []string{
	"", "   ", "...", "S.A.", "AS", "Group",
	"Telecom Telecom", "Net Net Net Networks", "Angola Angola Cables S.A.",
	"Mobile Co Nigeria", "Mobile", "Nigeria", "Nigeria Telecom", "a Nigeria b",
	"Türk Telekomünikasyon A.Ş.", "Turk Telekomunikasyon",
	"Ooredoo Q.S.C", "Ooredoo Tunisie", "SingTel Optus Pty Limited", "Optus",
	"National Telecom Network", "Global Telecom Services",
	strings.Repeat("Telecomunicaciones ", 5) + "del Estado",
	strings.Repeat("x", 70), strings.Repeat("x", 69) + "y",
}

// worldNames collects, per country, every name stages 1–2 compare in a
// generated world: operators' brand, legal and former names (which are
// also every document's and subsidiary listing's company name), WHOIS
// organization names and contact-domain stems, PeeringDB names, Orbis
// state-owned telecoms, and the country's own name.
func worldNames(seed uint64) map[string][]string {
	w := world.Generate(world.Config{Seed: seed, Scale: 0.1})
	out := map[string][]string{}
	seen := map[[2]string]bool{}
	add := func(cc, name string) {
		if k := [2]string{cc, name}; !seen[k] {
			seen[k] = true
			out[cc] = append(out[cc], name)
		}
	}
	for _, cc := range w.Countries {
		add(cc, ccodes.MustByCode(cc).Name)
	}
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		add(op.Country, op.BrandName)
		add(op.Country, op.LegalName)
		add(op.Country, op.FormerName)
	}
	reg, pdb := whois.Build(w), peeringdb.Build(w)
	for _, a := range w.ASNList {
		if rec, ok := reg.Lookup(a); ok {
			add(rec.Country, rec.OrgName)
			if at := strings.IndexByte(rec.Email, '@'); at >= 0 {
				add(rec.Country, strings.SplitN(rec.Email[at+1:], ".", 2)[0])
			}
		}
		if e, ok := pdb.Lookup(a); ok {
			add(e.Country, e.Name)
		}
	}
	for _, e := range orbis.Build(w).StateOwnedTelecoms() {
		add(e.Country, e.CompanyName)
	}
	return out
}

func checkPrepared(t *testing.T, a, b string) {
	t.Helper()
	pa, pb := Prepare(a), Prepare(b)
	if pa.Norm != Normalize(a) || pb.Norm != Normalize(b) {
		t.Fatalf("Prepare(%q).Norm = %q, Prepare(%q).Norm = %q: not Normalize", a, pa.Norm, b, pb.Norm)
	}
	checkPreparedPair(t, a, b, pa, pb)
}

// checkPreparedPair compares both orders of a prepared pair with one
// reference call per function; FuzzSimilarity holds the reference
// symmetric.
func checkPreparedPair(t *testing.T, a, b string, pa, pb Name) {
	t.Helper()
	want := referenceSimilarity(a, b)
	if got, rev := pa.Similarity(pb), pb.Similarity(pa); got != want || rev != want {
		t.Fatalf("Similarity(%q, %q) = %v (reversed %v), reference %v", a, b, got, rev, want)
	}
	want = referenceTokenSetSimilarity(a, b)
	if got, rev := pa.TokenSetSimilarity(pb), pb.TokenSetSimilarity(pa); got != want || rev != want {
		t.Fatalf("TokenSetSimilarity(%q, %q) = %v (reversed %v), reference %v", a, b, got, rev, want)
	}
}

// TestPreparedMatchesReference holds the prepared comparisons to the
// pre-change string functions, score for score (==, not within an
// epsilon: every weight sum is a multiple of 0.25, so it is exact in any
// order), over every same-country name pair of three worlds plus the
// edge cases.
func TestPreparedMatchesReference(t *testing.T) {
	for _, a := range edgeNames {
		for _, b := range edgeNames {
			checkPrepared(t, a, b)
		}
	}
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		pairs := 0
		for _, names := range worldNames(seed) {
			prepared := make([]Name, len(names))
			for i, n := range names {
				if prepared[i] = Prepare(n); prepared[i].Norm != Normalize(n) {
					t.Fatalf("Prepare(%q).Norm = %q, Normalize %q", n, prepared[i].Norm, Normalize(n))
				}
			}
			for i, a := range names {
				for j := i; j < len(names); j++ {
					if testing.Short() && (i+j)%8 != 0 {
						continue
					}
					checkPreparedPair(t, a, names[j], prepared[i], prepared[j])
					pairs++
				}
			}
		}
		if pairs < 10000 {
			t.Fatalf("seed %d: only %d same-country pairs compared", seed, pairs)
		}
	}
}

// TestPreparedEmptyNames: a name that normalizes to "" matches nothing,
// itself included.
func TestPreparedEmptyNames(t *testing.T) {
	for _, a := range []string{"", "...", " - "} {
		for _, b := range []string{"", "...", "Telenor"} {
			pa, pb := Prepare(a), Prepare(b)
			if s := pa.Similarity(pb); s != 0 {
				t.Errorf("Similarity(%q, %q) = %v, want 0", a, b, s)
			}
			if s := pa.TokenSetSimilarity(pb); s != 0 {
				t.Errorf("TokenSetSimilarity(%q, %q) = %v, want 0", a, b, s)
			}
		}
	}
}

func TestPrepareDedupsSortedTokens(t *testing.T) {
	n := Prepare("Telecom Net Telecom Angola S.A.")
	if got := strings.Join(n.Tokens, ","); got != "angola,net,telecom" {
		t.Errorf("Tokens = %q, want sorted distinct angola,net,telecom", got)
	}
	if n.Norm != "telecom net telecom angola" {
		t.Errorf("Norm = %q", n.Norm)
	}
	if n.total != 1.5 {
		t.Errorf("total weight = %v, want 1.5 (angola 1, net 0.25, telecom 0.25)", n.total)
	}
}

// TestPreparedSimilarityAllocs: comparing prepared names allocates
// nothing for names up to Jaro's 64-byte stack buffers.
func TestPreparedSimilarityAllocs(t *testing.T) {
	a := Prepare("Empresa Nacional de Telecomunicaciones del Estado S.A.")
	b := Prepare(strings.Repeat("Telecomunicaciones Nacional ", 2) + "Empresa")
	if len(a.Norm) > 64 || len(b.Norm) > 64 {
		t.Fatalf("fixture names exceed 64 bytes: %d, %d", len(a.Norm), len(b.Norm))
	}
	if n := testing.AllocsPerRun(100, func() { a.Similarity(b) }); n != 0 {
		t.Errorf("prepared Similarity allocates %v times per call, want 0", n)
	}
}

func BenchmarkSimilarity(b *testing.B) {
	names := worldNames(42)["NG"]
	prepared := make([]Name, len(names))
	for i, n := range names {
		prepared[i] = Prepare(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range prepared {
			for _, y := range prepared {
				x.Similarity(y)
			}
		}
	}
}
