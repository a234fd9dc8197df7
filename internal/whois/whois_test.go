package whois

import (
	"strings"
	"testing"

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
