package whois

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"stateowned/internal/faults"
	"stateowned/internal/world"
)

var (
	testW   = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	testReg = Build(testW)
)

func TestEveryASHasRecord(t *testing.T) {
	if len(testReg.records) != len(testW.ASNList) {
		t.Fatalf("records %d != ASes %d", len(testReg.records), len(testW.ASNList))
	}
	for _, asn := range testW.ASNList {
		rec, ok := testReg.Lookup(asn)
		if !ok {
			t.Fatalf("AS%d missing", asn)
		}
		if rec.ASN != asn || rec.OrgName == "" || rec.Email == "" || rec.OrgID == "" {
			t.Fatalf("AS%d malformed record %+v", asn, rec)
		}
		a := testW.ASes[asn]
		if rec.Country != a.Country || rec.ASName != a.Name {
			t.Fatalf("AS%d identity mismatch", asn)
		}
	}
}

func TestStaleNamesPresent(t *testing.T) {
	// The planted Internexa Argentina case must surface in WHOIS.
	rec, _ := testReg.Lookup(262195)
	if rec.OrgName != "Transamerican Telecomunication S.A." {
		t.Errorf("Internexa AR OrgName = %q (staleness model should surface the former name)", rec.OrgName)
	}
	// Some share of rebranded operators must show stale names overall.
	stale := 0
	for _, id := range testW.OperatorIDs {
		op := testW.Operators[id]
		if op.FormerName == "" || len(op.ASNs) == 0 {
			continue
		}
		if rec, _ := testReg.Lookup(op.ASNs[0]); rec.OrgName == op.FormerName {
			stale++
		}
	}
	if stale == 0 {
		t.Error("no stale WHOIS records generated")
	}
}

func TestAcquiredSiblingSplits(t *testing.T) {
	// Some multi-ASN operators must have siblings under different org
	// handles (the AS2Org failure input).
	split, together := 0, 0
	for _, id := range testW.OperatorIDs {
		op := testW.Operators[id]
		if len(op.ASNs) < 2 {
			continue
		}
		base, _ := testReg.Lookup(op.ASNs[0])
		for _, asn := range op.ASNs[1:] {
			rec, _ := testReg.Lookup(asn)
			if rec.OrgID != base.OrgID {
				split++
				if !strings.Contains(rec.OrgID, "-ACQ") {
					t.Fatalf("AS%d unexpected foreign org %s", asn, rec.OrgID)
				}
			} else {
				together++
			}
		}
	}
	if split == 0 {
		t.Error("no split-org siblings; AS2Org failure mode not exercised")
	}
	if together == 0 {
		t.Error("no clustered siblings at all")
	}
	if frac := float64(split) / float64(split+together); frac > 0.45 {
		t.Errorf("split fraction %.2f too high", frac)
	}
}

func TestASNsOfOrg(t *testing.T) {
	rec, _ := testReg.Lookup(2119) // Telenor
	asns := testReg.ASNsOfOrg(rec.OrgID)
	if len(asns) < 2 {
		t.Errorf("Telenor org has %d ASNs", len(asns))
	}
	found := false
	for _, a := range asns {
		if a == 2119 {
			found = true
		}
	}
	if !found {
		t.Error("org ASN list misses the queried ASN")
	}
}

func TestDeterminism(t *testing.T) {
	reg2 := Build(testW)
	for _, asn := range testW.ASNList[:300] {
		a, _ := testReg.Lookup(asn)
		b, _ := reg2.Lookup(asn)
		if a != b {
			t.Fatalf("AS%d record differs across builds", asn)
		}
	}
}

// TestIndexesFollowRecords: Orgs and ASNsIn are indexes over the
// records, rebuilt by every mutation. On a fresh registry and after
// Degrade and then Quarantine, Orgs is every org handle sorted and
// ASNsIn(cc) every ASN whose record names cc, ascending.
func TestIndexesFollowRecords(t *testing.T) {
	check := func(label string, r *Registry) {
		t.Helper()
		wantOrgs := make([]string, 0, len(r.byOrg))
		for o := range r.byOrg {
			wantOrgs = append(wantOrgs, o)
		}
		sort.Strings(wantOrgs)
		if !reflect.DeepEqual(r.Orgs(), wantOrgs) {
			t.Fatalf("%s: Orgs lists %d handles, want the %d sorted", label, len(r.Orgs()), len(wantOrgs))
		}
		want := map[string][]world.ASN{}
		for _, a := range r.sortedASNs() {
			cc := r.records[a].Country
			want[cc] = append(want[cc], a)
		}
		for cc, asns := range want {
			if got := r.ASNsIn(cc); !reflect.DeepEqual(got, asns) {
				t.Fatalf("%s: ASNsIn(%s) = %d ASNs, want %d", label, cc, len(got), len(asns))
			}
		}
		if len(r.byCountry) != len(want) {
			t.Fatalf("%s: %d countries indexed, want %d", label, len(r.byCountry), len(want))
		}
	}
	r := Build(testW)
	check("built", r)
	plan := faults.NewPlan(7, 1)
	dmg := r.Degrade(plan.Injector("whois", plan.WHOIS))
	if dmg.Dropped == 0 || dmg.Corrupted == 0 {
		t.Fatalf("fixture: degradation %+v must drop and corrupt records", dmg)
	}
	check("degraded", r)
	if r.ASNsIn(faults.BadCountry) == nil {
		t.Fatal("fixture: no corrupted country reached the index")
	}
	if r.Quarantine() == 0 {
		t.Fatal("fixture: quarantine removed nothing")
	}
	check("quarantined", r)
	if r.ASNsIn(faults.BadCountry) != nil {
		t.Fatal("quarantine left the corrupted country indexed")
	}
}
