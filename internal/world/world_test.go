package world

import (
	"testing"

	"stateowned/internal/ownership"
)

// testWorld generates a small-scale world once for the whole test file.
var testW = Generate(Config{Seed: 7, Scale: 0.15})

func TestValidate(t *testing.T) {
	if err := testW.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 99, Scale: 0.05})
	b := Generate(Config{Seed: 99, Scale: 0.05})
	if len(a.OperatorIDs) != len(b.OperatorIDs) || len(a.ASNList) != len(b.ASNList) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(a.OperatorIDs), len(a.ASNList), len(b.OperatorIDs), len(b.ASNList))
	}
	for i := range a.ASNList {
		if a.ASNList[i] != b.ASNList[i] {
			t.Fatalf("ASN lists diverge at %d", i)
		}
	}
	for _, id := range a.OperatorIDs {
		oa, ob := a.Operators[id], b.Operators[id]
		if oa.LegalName != ob.LegalName || oa.AddrShare != ob.AddrShare || oa.Subscribers != ob.Subscribers {
			t.Fatalf("operator %s differs between runs", id)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := Generate(Config{Seed: 1, Scale: 0.05})
	b := Generate(Config{Seed: 2, Scale: 0.05})
	diff := false
	for _, id := range a.OperatorIDs {
		if ob, ok := b.Operators[id]; ok {
			if oa := a.Operators[id]; oa.LegalName != ob.LegalName {
				diff = true
				break
			}
		} else {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seeds 1 and 2 generated identical worlds")
	}
}

func TestAnchorsPlanted(t *testing.T) {
	cases := []struct {
		asn     ASN
		country string
		owner   string // expected controlling state ("" = not state-owned)
	}{
		{2119, "NO", "NO"},   // Telenor
		{7473, "SG", "SG"},   // SingTel
		{7474, "AU", "SG"},   // Optus: SG-controlled in AU
		{4809, "CN", "CN"},   // China Telecom
		{12389, "RU", "RU"},  // Rostelecom
		{20485, "RU", "RU"},  // TTK via holdco chain
		{37468, "AO", "AO"},  // Angola Cables via Angola Telecom chain
		{132602, "BD", "BD"}, // BSCCL
		{11960, "CU", "CU"},  // ETECSA
		{52361, "AR", "AR"},  // ARSAT
		{4788, "MY", "MY"},   // Telekom Malaysia via fund aggregation
		{23693, "ID", "ID"},  // Telkomsel joint venture: ID wins
		{17557, "PK", "PK"},  // PTCL joint venture: PK wins
		{262195, "AR", "CO"}, // Internexa Argentina: CO-controlled
		{3320, "DE", ""},     // Deutsche Telekom: minority only
		{5511, "FR", ""},     // Orange: minority only
		{1299, "SE", ""},     // Telia: minority only
		{9498, "IN", ""},     // Bharti: foreign minority only
		{37662, "MU", ""},    // WIOCC consortium below threshold
		{1273, "GB", ""},     // Vodafone: private
		{26611, "CO", ""},    // COMCEL: private (America Movil)
	}
	for _, tc := range cases {
		a, ok := testW.AS(tc.asn)
		if !ok {
			t.Errorf("AS%d missing", tc.asn)
			continue
		}
		if a.Country != tc.country {
			t.Errorf("AS%d country = %s, want %s", tc.asn, a.Country, tc.country)
		}
		owner, owned := testW.TrueStateOwnedAS(tc.asn)
		if tc.owner == "" {
			if owned {
				t.Errorf("AS%d should not be state-owned, got %s", tc.asn, owner)
			}
		} else if owner != tc.owner {
			t.Errorf("AS%d owner = %q (owned=%v), want %s", tc.asn, owner, owned, tc.owner)
		}
	}
}

// trueForeignSubsidiaryAS reports whether the AS belongs to an in-scope
// operator controlled by a state other than its country of operation.
func trueForeignSubsidiaryAS(w *World, n ASN) (string, bool) {
	op, ok := w.OperatorOfAS(n)
	if !ok || !op.Kind.InScope() {
		return "", false
	}
	owner, ok := w.Graph.IsForeignSubsidiary(op.Entity)
	return owner, ok
}

func TestForeignSubsidiaries(t *testing.T) {
	owner, ok := trueForeignSubsidiaryAS(testW, 7474) // Optus
	if !ok || owner != "SG" {
		t.Errorf("Optus foreign-subsidiary = %q %v, want SG", owner, ok)
	}
	if _, ok := trueForeignSubsidiaryAS(testW, 7473); ok {
		t.Error("SingTel home AS flagged as foreign subsidiary")
	}
	// Every Table 3 owner country must control at least one foreign AS.
	owners := map[string]int{}
	for _, asn := range testW.ASNList {
		if cc, ok := trueForeignSubsidiaryAS(testW, asn); ok {
			owners[cc]++
		}
	}
	for _, cc := range []string{"AE", "CN", "QA", "NO", "VN", "SG", "MY", "CO", "RS", "ID", "BH", "TN", "SA", "FJ", "MU", "BE", "CH", "RU", "SI"} {
		if owners[cc] == 0 {
			t.Errorf("owner country %s has no foreign subsidiary ASes", cc)
		}
	}
}

func TestExcludedKindsNotStateOwnedASes(t *testing.T) {
	// Academic and government networks are state-funded but out of scope:
	// TrueStateOwnedAS must never label them.
	n := 0
	for _, id := range testW.OperatorIDs {
		op := testW.Operators[id]
		if op.Kind.InScope() {
			continue
		}
		n++
		for _, asn := range op.ASNs {
			if owner, ok := testW.TrueStateOwnedAS(asn); ok {
				t.Fatalf("out-of-scope AS%d (%s) labeled state-owned by %s", asn, op.Kind, owner)
			}
		}
	}
	if n == 0 {
		t.Error("world has no excluded-kind operators")
	}
}

// TestJointVenturesPlanted requires PTCL to be a joint venture: two or
// more states hold at least 20% each, Pakistan the largest share (ties
// go to the alphabetically first country).
func TestJointVenturesPlanted(t *testing.T) {
	op, _ := testW.OperatorOfAS(17557)
	shares := testW.ControlOf(op).StateShares
	parts := 0
	for cc, share := range shares {
		if share >= 0.20 {
			parts++
		}
		if share > shares["PK"] || share == shares["PK"] && cc < "PK" {
			t.Errorf("PTCL: %s holds %.2f, more than Pakistan's %.2f", cc, share, shares["PK"])
		}
	}
	if parts < 2 {
		t.Errorf("PTCL state shares %v: want two or more states at 20%% or more", shares)
	}
}

func TestFundAggregationPlanted(t *testing.T) {
	op, _ := testW.OperatorOfAS(4788)
	c := testW.ControlOf(op)
	if c.Controller != "MY" {
		t.Fatalf("Telekom Malaysia controller = %q", c.Controller)
	}
	// The government must hold no *direct* stake; control flows through
	// the three funds.
	for _, h := range testW.Graph.Holders(op.Entity) {
		if h.Holder == ownership.EntityID("gov-MY") {
			t.Error("Telekom Malaysia has a direct government holding; expected funds only")
		}
	}
}

func TestHighFootprintCountries(t *testing.T) {
	// Table 8 anchors: the state's address footprint must be >= 0.9 in
	// these countries.
	for _, cc := range []string{"ET", "CU", "SY", "AE"} {
		var state, total uint64
		for _, asn := range testW.ASNList {
			a := testW.ASes[asn]
			if a.Country != cc {
				continue
			}
			op := testW.Operators[a.OperatorID]
			if !op.Kind.ProvidesAccess() {
				continue
			}
			n := a.NumAddresses()
			total += n
			if owner, ok := testW.TrueStateOwnedAS(asn); ok && owner == cc {
				state += n
			}
		}
		if total == 0 {
			t.Errorf("%s: no access address space", cc)
			continue
		}
		if frac := float64(state) / float64(total); frac < 0.85 {
			t.Errorf("%s: state access footprint %.2f, want >= 0.85", cc, frac)
		}
	}
}

func TestWorldScaleCounts(t *testing.T) {
	if len(testW.Countries) < 180 {
		t.Errorf("countries = %d", len(testW.Countries))
	}
	if len(testW.ASNList) < 1000 {
		t.Errorf("world too small: %d ASes", len(testW.ASNList))
	}
	// Count state-owned countries (majority, in-scope operators).
	countries := map[string]bool{}
	for _, asn := range testW.ASNList {
		if owner, ok := testW.TrueStateOwnedAS(asn); ok {
			a := testW.ASes[asn]
			if a.Country == owner {
				countries[owner] = true
			}
		}
	}
	if n := len(countries); n < 95 || n > 150 {
		t.Errorf("state-owned countries = %d, want ~123 +/- band", n)
	}
}

func TestCountrySubsetConfig(t *testing.T) {
	w := Generate(Config{Seed: 3, Scale: 0.1, Countries: []string{"NO", "SE", "DK"}})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range w.OperatorIDs {
		cc := w.Operators[id].Country
		if cc != "NO" && cc != "SE" && cc != "DK" {
			t.Fatalf("operator %s outside country subset: %s", id, cc)
		}
	}
	// Telenor's home anchor must exist; its excluded-host subsidiaries
	// must not.
	if _, ok := w.AS(2119); !ok {
		t.Error("Telenor anchor missing in subset world")
	}
	if _, ok := w.AS(7473); ok {
		t.Error("SingTel generated despite SG being out of subset")
	}
}

func TestSubscriberSanity(t *testing.T) {
	for _, id := range testW.OperatorIDs {
		op := testW.Operators[id]
		if op.Subscribers < 0 {
			t.Fatalf("%s: negative subscribers", id)
		}
		if !op.Kind.ProvidesAccess() && op.Subscribers > 0 {
			t.Fatalf("%s (%s): non-access operator has subscribers", id, op.Kind)
		}
		users := testW.Profiles[op.Country].InternetUsers
		if op.Subscribers > users {
			t.Fatalf("%s: subscribers %d exceed country users %d", id, op.Subscribers, users)
		}
	}
}

func TestStaleWhoisNamePlanted(t *testing.T) {
	op, ok := testW.OperatorOfAS(262195)
	if !ok {
		t.Fatal("Internexa Argentina missing")
	}
	if op.FormerName != "Transamerican Telecomunication S.A." {
		t.Errorf("FormerName = %q", op.FormerName)
	}
}
