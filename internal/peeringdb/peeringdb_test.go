package peeringdb

import (
	"testing"

	"stateowned/internal/world"
)

var (
	testW  = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	testDB = Build(testW)
)

func TestPartialCoverage(t *testing.T) {
	frac := float64(len(testDB.entries)) / float64(len(testW.ASNList))
	// Paper: roughly 20% of WHOIS-registered ASes.
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("coverage %.2f outside plausible PeeringDB band", frac)
	}
}

func TestEntriesCarryBrandNames(t *testing.T) {
	hits := 0
	for _, asn := range testW.ASNList {
		e, ok := testDB.Lookup(asn)
		if !ok {
			continue
		}
		hits++
		op, _ := testW.OperatorOfAS(asn)
		if e.Name != op.BrandName {
			t.Fatalf("AS%d PeeringDB name %q != brand %q", asn, e.Name, op.BrandName)
		}
		if e.Country != op.Country || e.Website == "" || e.NOCEmail == "" {
			t.Fatalf("AS%d malformed entry %+v", asn, e)
		}
	}
	if hits == 0 {
		t.Fatal("no entries at all")
	}
}

func TestTransitBias(t *testing.T) {
	// Transit/incumbent networks must be registered at a higher rate
	// than enterprise stubs.
	rate := func(kinds map[world.OperatorKind]bool) float64 {
		covered, total := 0, 0
		for _, id := range testW.OperatorIDs {
			op := testW.Operators[id]
			if !kinds[op.Kind] || len(op.ASNs) == 0 {
				continue
			}
			total++
			if _, ok := testDB.Lookup(op.ASNs[0]); ok {
				covered++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(covered) / float64(total)
	}
	transit := rate(map[world.OperatorKind]bool{world.KindTransit: true, world.KindIncumbent: true, world.KindSubmarineCable: true})
	stub := rate(map[world.OperatorKind]bool{world.KindEnterprise: true})
	if transit <= stub {
		t.Errorf("transit coverage %.2f not above stub coverage %.2f", transit, stub)
	}
}

func TestDeterminism(t *testing.T) {
	db2 := Build(testW)
	if len(db2.entries) != len(testDB.entries) {
		t.Fatal("entry counts differ across builds")
	}
}
