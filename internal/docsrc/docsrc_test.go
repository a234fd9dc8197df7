package docsrc

import (
	"testing"

	"stateowned/internal/world"
)

var (
	testW = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	testC = Build(testW)
)

// docsFor returns all documents linked to an operator, in corpus order.
func docsFor(c *Corpus, opID string) []Document {
	var out []Document
	for _, d := range c.docs {
		if d.OperatorID == opID {
			out = append(out, d)
		}
	}
	return out
}

func TestCorpusNonEmpty(t *testing.T) {
	if len(testC.docs) < 500 {
		t.Fatalf("corpus too small: %d docs", len(testC.docs))
	}
}

func TestFHCoverage(t *testing.T) {
	n := 0
	for _, cc := range testW.Countries {
		if testC.fhCountries[cc] {
			n++
		}
	}
	if n != FHCoverageTarget {
		t.Errorf("FH covers %d countries, want %d", n, FHCoverageTarget)
	}
}

// TestFreedomHouseNoFalsePositives is the paper's §7 finding: FH never
// labels a company state-owned that is not.
func TestFreedomHouseNoFalsePositives(t *testing.T) {
	for _, l := range testC.FreedomHouseListings() {
		for _, opID := range l.OperatorIDs {
			op, ok := testW.Operator(opID)
			if !ok {
				t.Fatalf("FH lists unknown operator %s", opID)
			}
			if !testW.Graph.ControlOf(op.Entity).Controlled() {
				t.Errorf("FH false positive: %s", op.BrandName)
			}
		}
	}
}

func TestWikipediaHasFalsePositives(t *testing.T) {
	fps := 0
	for _, l := range testC.WikipediaListings() {
		for _, opID := range l.OperatorIDs {
			op, _ := testW.Operator(opID)
			if !testW.Graph.ControlOf(op.Entity).Controlled() || !op.Kind.InScope() {
				fps++
			}
		}
	}
	if fps == 0 {
		t.Error("Wikipedia listings contain no false positives; stage 2 filtering untestable")
	}
}

func TestAuthoritativeDocsTruthful(t *testing.T) {
	// Websites and annual reports must report the graph's truth.
	for _, id := range testW.OperatorIDs {
		op := testW.Operators[id]
		ctrl := testW.Graph.ControlOf(op.Entity)
		for _, d := range docsFor(testC, id) {
			if !d.StatesOwnership {
				continue
			}
			switch d.Source {
			case CompanyWebsite, AnnualReport, WorldBank, IMF, ITU, FCC, Regulator, FreedomHouse:
				if ctrl.Controlled() {
					if d.ReportedOwner != ctrl.Controller {
						t.Fatalf("%s: %v reports owner %s, truth %s", id, d.Source, d.ReportedOwner, ctrl.Controller)
					}
					if d.ReportedShare < 0.5 {
						t.Fatalf("%s: %v reports share %f for controlled firm", id, d.Source, d.ReportedShare)
					}
				} else if d.ReportedOwner != "" && d.ReportedShare >= 0.5 {
					t.Fatalf("%s: authoritative %v claims majority state ownership of uncontrolled firm", id, d.Source)
				}
			}
		}
	}
}

func TestSearchFindsByBrandAndLegalName(t *testing.T) {
	telenor, _ := testW.OperatorOfAS(2119)
	hits := testC.Search("Telenor", "NO")
	if len(hits) == 0 {
		t.Fatal("no docs found for Telenor")
	}
	found := false
	for _, d := range hits {
		if d.OperatorID == telenor.ID {
			found = true
		}
	}
	if !found {
		t.Error("Telenor docs not retrieved by brand search")
	}
	// Legal-name search must work too.
	hits = testC.Search("Telenor Norge AS", "NO")
	if len(hits) == 0 {
		t.Error("no docs for legal-name search")
	}
}

func TestSubsidiaryMentions(t *testing.T) {
	// Parents' websites/reports must mention most subsidiaries; check
	// SingTel -> Optus.
	singtel, _ := testW.OperatorOfAS(7473)
	mentions := 0
	for _, d := range docsFor(testC, singtel.ID) {
		for _, s := range d.Subsidiaries {
			if s.Country == "AU" {
				mentions++
			}
		}
	}
	if mentions == 0 {
		t.Error("SingTel documents never mention Optus; subsidiary discovery impossible")
	}
}

func TestQuoteLanguages(t *testing.T) {
	langs := map[string]int{}
	for _, id := range testW.OperatorIDs {
		for _, d := range docsFor(testC, id) {
			langs[d.Lang]++
		}
	}
	for _, l := range []string{"English", "Spanish", "French"} {
		if langs[l] == 0 {
			t.Errorf("no %s documents", l)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c2 := Build(testW)
	if len(c2.docs) != len(testC.docs) {
		t.Fatalf("doc counts differ: %d vs %d", len(c2.docs), len(testC.docs))
	}
	a := testC.Search("Ooredoo", "QA")
	b := c2.Search("Ooredoo", "QA")
	if len(a) != len(b) {
		t.Fatal("search results differ across builds")
	}
}
