package candidates

import (
	"reflect"
	"strings"
	"testing"

	"stateowned/internal/ccodes"
	"stateowned/internal/nameutil"
	"stateowned/internal/orbis"
	"stateowned/internal/peeringdb"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// SameCompany is the string form of the same-company predicate.
// Production code compares prepared identities; tests keep this
// one-line wrapper for readability.
func SameCompany(a, b, cc string) bool { return NewIdentity(a, cc).Same(NewIdentity(b, cc)) }

// referenceSameCompany is SameCompany as it stood before names were
// prepared, kept verbatim — both names stripped and re-tokenized on every
// call — except that its two string scores go through the string
// wrappers below (nameutil's own differential holds those to the
// pre-change string functions). It is the oracle for how Identity builds
// the full and stripped forms and picks between them.
func referenceSameCompany(a, b, cc string) bool {
	sa, sb := stripCountryTokens(a, cc), stripCountryTokens(b, cc)
	if sa != "" && sb != "" {
		a, b = sa, sb
	}
	if nameutil.JaroWinkler(nameutil.Normalize(a), nameutil.Normalize(b)) >= identityJWBar {
		return true
	}
	return similarity(a, b) >= identitySimBar &&
		tokenSetSimilarity(a, b) >= identityTokenBar
}

// stripCountryTokens is the country-word stripping as it stood before
// NewIdentity tokenized each name once, kept verbatim: it removes the
// country's name words from a company name ("Nigeria Mobile" ->
// "Mobile" for cc=NG).
func stripCountryTokens(name, cc string) string {
	c, ok := ccodes.ByCode(cc)
	if !ok {
		return name
	}
	drop := map[string]bool{}
	for _, t := range nameutil.Tokens(c.Name) {
		drop[t] = true
	}
	var kept []string
	for _, t := range nameutil.Tokens(name) {
		if !drop[t] {
			kept = append(kept, t)
		}
	}
	return strings.Join(kept, " ")
}

// referenceNewIdentity is NewIdentity as it stood before it tokenized
// each name once, kept verbatim: the name tokenized for the full form,
// again for stripping, and the stripped string a third time.
func referenceNewIdentity(name, cc string) Identity {
	id := Identity{Name: nameutil.Prepare(name)}
	if s := stripCountryTokens(name, cc); s != "" {
		id.stripped, id.strips = nameutil.Prepare(s), true
	}
	return id
}

func similarity(a, b string) float64 {
	return nameutil.Prepare(a).Similarity(nameutil.Prepare(b))
}

func tokenSetSimilarity(a, b string) float64 {
	return nameutil.Prepare(a).TokenSetSimilarity(nameutil.Prepare(b))
}

// identityEdgeNames are Nigerian names the generated worlds may not
// contain: names that are only country words (they do not strip), names
// whose stripped form ends in a legal suffix or joins single letters
// (the stripped string must be tokenized again), repeated tokens, and
// names that normalize to "".
var identityEdgeNames = []string{
	"", "...", "Nigeria", "Federal Republic of Nigeria", "Nigeria Telecom",
	"Mobile Co Nigeria", "Mobile", "Ab Co Nigeria", "Ab", "a Nigeria b", "ab",
	"Nigeria Mobile", "Nigeria Telecom Telecom", "Telecom Nigeria Ltd",
}

// worldCompanyNames collects, per country, every name stages 1–2 test
// for identity in a generated world: operators' brand, legal and former
// names (also every document's and subsidiary listing's company name),
// WHOIS organization names, PeeringDB names, Orbis state-owned telecoms,
// and the country's own name.
func worldCompanyNames(seed uint64) map[string][]string {
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

// checkIdentities compares every pair of names prepared in country cc
// with the reference predicate, and each stripped form with the
// normalized stripped string. -short checks one pair in eight.
func checkIdentities(t *testing.T, cc string, names []string) int {
	t.Helper()
	ids := make([]Identity, len(names))
	for i, n := range names {
		ids[i] = NewIdentity(n, cc)
		s := stripCountryTokens(n, cc)
		if ids[i].strips != (s != "") || ids[i].stripped.Norm != nameutil.Normalize(s) {
			t.Fatalf("NewIdentity(%q, %s): stripped form %q (strips %v), want Normalize(%q) = %q",
				n, cc, ids[i].stripped.Norm, ids[i].strips, s, nameutil.Normalize(s))
		}
	}
	pairs := 0
	for i, a := range names {
		for j := i; j < len(names); j++ {
			if testing.Short() && (i+j)%8 != 0 {
				continue
			}
			want := referenceSameCompany(a, names[j], cc)
			if got, rev := ids[i].Same(ids[j]), ids[j].Same(ids[i]); got != want || rev != want {
				t.Fatalf("Same(%q, %q) in %s = %v (reversed %v), reference %v", a, names[j], cc, got, rev, want)
			}
			pairs++
		}
	}
	return pairs
}

// TestIdentityMatchesReference holds the prepared same-company predicate
// to the pre-change one over every same-country name pair of three
// worlds, plus the edge cases.
func TestIdentityMatchesReference(t *testing.T) {
	checkIdentities(t, "NG", identityEdgeNames)
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		pairs := 0
		for cc, names := range worldCompanyNames(seed) {
			pairs += checkIdentities(t, cc, names)
		}
		if pairs < 10000 {
			t.Fatalf("seed %d: only %d same-country pairs compared", seed, pairs)
		}
	}
}

// TestNewIdentityMatchesReference holds NewIdentity, which tokenizes a
// name once and reads the country's words from a memo, to the version
// that tokenized it three times: the prepared identities are deep-equal
// for the edge names, in Nigeria and under a code outside the table
// (which strips nothing), and for every name of three worlds.
func TestNewIdentityMatchesReference(t *testing.T) {
	check := func(cc string, names []string) {
		t.Helper()
		for _, n := range names {
			if got, want := NewIdentity(n, cc), referenceNewIdentity(n, cc); !reflect.DeepEqual(got, want) {
				t.Fatalf("NewIdentity(%q, %s) = %+v, reference %+v", n, cc, got, want)
			}
		}
	}
	check("NG", identityEdgeNames)
	check("ZZ", identityEdgeNames)
	for _, seed := range []uint64{7, 21, 42} {
		for cc, names := range worldCompanyNames(seed) {
			check(cc, names)
		}
	}
}

// TestSameCompanyEdgeCases pins the verdicts the edge names exist for.
func TestSameCompanyEdgeCases(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		// Both normalize to "": Jaro("", "") = 1, so they are one company.
		{"", "", true},
		{"...", "", true},
		// Stripping "Nigeria" leaves "mobile co", which normalizes to
		// "mobile": identical to the other side.
		{"Ab Co Nigeria", "Ab", true},
		{"Mobile Co Nigeria", "Mobile", true},
		// Only one side strips to a word, so the full names are compared.
		{"Nigeria", "Nigeria Telecom", true},
		{"Nigeria Mobile", "Nigeria Telecom", false},
	}
	for _, c := range cases {
		if got := SameCompany(c.a, c.b, "NG"); got != c.same {
			t.Errorf("SameCompany(%q, %q, NG) = %v, want %v", c.a, c.b, got, c.same)
		}
		if want := referenceSameCompany(c.a, c.b, "NG"); want != c.same {
			t.Errorf("reference SameCompany(%q, %q, NG) = %v, want %v", c.a, c.b, want, c.same)
		}
	}
	if !strings.Contains(stripCountryTokens("Ab Co Nigeria", "NG"), "co") {
		t.Fatal("fixture: stripping must keep the legal suffix for the re-tokenizing case")
	}
}
