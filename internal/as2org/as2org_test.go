package as2org

import (
	"testing"

	"stateowned/internal/whois"
	"stateowned/internal/world"
)

var (
	testW = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	reg   = whois.Build(testW)
	testM = Infer(reg)
)

func TestEveryASClustered(t *testing.T) {
	for _, asn := range testW.ASNList {
		org, ok := testM.OrgOf(asn)
		if !ok {
			t.Fatalf("AS%d unclustered", asn)
		}
		found := false
		for _, a := range org.ASNs {
			if a == asn {
				found = true
			}
		}
		if !found {
			t.Fatalf("AS%d not in its own org", asn)
		}
	}
}

func TestSiblingsSymmetric(t *testing.T) {
	for _, asn := range testW.ASNList[:500] {
		for _, sib := range testM.Siblings(asn) {
			back := testM.Siblings(sib)
			found := false
			for _, b := range back {
				if b == asn {
					found = true
				}
			}
			if !found {
				t.Fatalf("sibling relation asymmetric: %d <-> %d", asn, sib)
			}
		}
	}
}

// missedSiblings reports, against the ground-truth world, sibling pairs
// AS2Org fails to cluster (the acquisition-renamed org records): the
// stage-3 recall loss the paper describes contributing fixes back for.
func missedSiblings(m *Mapping, w *world.World) int {
	missed := 0
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		if len(op.ASNs) < 2 {
			continue
		}
		base, ok := m.orgOf[op.ASNs[0]]
		if !ok {
			continue
		}
		for _, a := range op.ASNs[1:] {
			if m.orgOf[a] != base {
				missed++
			}
		}
	}
	return missed
}

func TestInheritsWhoisFailure(t *testing.T) {
	missed := missedSiblings(testM, testW)
	if missed == 0 {
		t.Error("AS2Org captured all siblings; the documented failure mode is absent")
	}
	// But most siblings must cluster.
	totalSiblingLinks := 0
	for _, id := range testW.OperatorIDs {
		if n := len(testW.Operators[id].ASNs); n > 1 {
			totalSiblingLinks += n - 1
		}
	}
	if frac := float64(missed) / float64(totalSiblingLinks); frac > 0.45 {
		t.Errorf("missed fraction %.2f too high", frac)
	}
}

func TestDistinctOrgs(t *testing.T) {
	// Telenor's primary siblings share an org: 7 ASNs fewer orgs.
	telenor, _ := testW.OperatorOfAS(2119)
	n := testM.DistinctOrgs(telenor.ASNs)
	if n < 1 || n >= len(telenor.ASNs) {
		t.Errorf("Telenor orgs = %d of %d ASNs", n, len(telenor.ASNs))
	}
	if got := testM.DistinctOrgs(nil); got != 0 {
		t.Errorf("empty DistinctOrgs = %d", got)
	}
}

// TestDistinctOrgsUnregistered is the regression test for keying an
// unregistered ASN by its code point: every ASN in the UTF-16 surrogate
// range (55296–57343) or above U+10FFFF became the same replacement
// character, so those ASNs counted as one organization between them.
func TestDistinctOrgsUnregistered(t *testing.T) {
	unregistered := []world.ASN{55296, 55297, 57343, 1114112, 4200000000, 55296}
	if got := testM.DistinctOrgs(unregistered); got != 5 {
		t.Errorf("five distinct unregistered ASNs count as %d organizations", got)
	}
	telenor, _ := testW.OperatorOfAS(2119)
	mixed := append(append([]world.ASN(nil), telenor.ASNs...), unregistered...)
	if got, want := testM.DistinctOrgs(mixed), testM.DistinctOrgs(telenor.ASNs)+5; got != want {
		t.Errorf("Telenor plus five unregistered ASNs = %d organizations, want %d", got, want)
	}
}

func TestOrgsListed(t *testing.T) {
	if testM.NumOrgs() == 0 {
		t.Fatal("no orgs")
	}
	ids := testM.Orgs()
	if len(ids) != testM.NumOrgs() {
		t.Fatal("Orgs() length mismatch")
	}
	if _, ok := testM.Org(ids[0]); !ok {
		t.Fatal("Org lookup failed")
	}
}
