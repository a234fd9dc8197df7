package eyeballs

import (
	"math"
	"testing"

	"stateowned/internal/world"
)

var (
	testW  = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	testDS = Build(testW)
)

func TestSharesSumToOne(t *testing.T) {
	for _, cc := range testW.Countries {
		ests := testDS.Country(cc)
		if len(ests) == 0 {
			continue
		}
		var sum float64
		for _, e := range ests {
			if e.Users <= 0 || e.Share <= 0 {
				t.Fatalf("%s: non-positive estimate %+v", cc, e)
			}
			sum += e.Share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %f", cc, sum)
		}
	}
}

// byAS indexes d's estimates by AS; an AS has estimates in its
// operator's country only.
func byAS(d *Dataset) map[world.ASN]Estimate {
	out := make(map[world.ASN]Estimate)
	for _, list := range d.byCountry {
		for _, e := range list {
			out[e.AS] = e
		}
	}
	return out
}

func TestOnlyAccessASesCovered(t *testing.T) {
	covered := byAS(testDS)
	for _, asn := range testW.ASNList {
		if e, ok := covered[asn]; ok {
			op, _ := testW.OperatorOfAS(asn)
			if op.Subscribers == 0 {
				t.Fatalf("AS%d covered with zero-subscriber operator %s", asn, op.ID)
			}
			if e.Country != op.Country {
				t.Fatalf("AS%d estimate country mismatch", asn)
			}
		}
	}
	if len(covered) == 0 {
		t.Fatal("no coverage at all")
	}
	// Coverage must be partial: stubs and transit networks are absent.
	if len(covered) >= len(testW.ASNList)/2 {
		t.Errorf("coverage %d of %d too broad", len(covered), len(testW.ASNList))
	}
}

func TestEstimatesTrackTruth(t *testing.T) {
	// Per operator, estimates should be within ~2x of truth (log-normal
	// sigma 0.2 makes >2x deviations vanishingly rare).
	covered := byAS(testDS)
	for _, id := range testW.OperatorIDs {
		op := testW.Operators[id]
		if op.Subscribers < 5000 || len(op.ASNs) == 0 {
			continue
		}
		var est int
		for _, asn := range op.ASNs {
			if e, ok := covered[asn]; ok {
				est += e.Users
			}
		}
		if est == 0 {
			continue
		}
		ratio := float64(est) / float64(op.Subscribers)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: estimate ratio %.2f (est %d, truth %d)", id, ratio, est, op.Subscribers)
		}
	}
}

func TestSortedDescending(t *testing.T) {
	for _, cc := range []string{"NO", "CN", "BR", "ET"} {
		ests := testDS.Country(cc)
		for i := 1; i < len(ests); i++ {
			if ests[i].Users > ests[i-1].Users {
				t.Fatalf("%s estimates not sorted", cc)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	ds2 := Build(testW)
	if len(byAS(ds2)) != len(byAS(testDS)) {
		t.Fatal("coverage differs across builds")
	}
	for _, cc := range testW.Countries {
		a, b := testDS.Country(cc), ds2.Country(cc)
		if len(a) != len(b) {
			t.Fatalf("%s coverage differs", cc)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s estimate %d differs", cc, i)
			}
		}
	}
}
