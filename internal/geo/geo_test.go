package geo

import (
	"sort"
	"testing"

	"stateowned/internal/ccodes"
	"stateowned/internal/world"
)

var (
	testW  = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	testDB = Build(testW)
)

func TestAccuracyBand(t *testing.T) {
	for _, cc := range testW.Countries {
		a := testDB.accuracy[cc]
		if a < 0.74 || a > 0.98 {
			t.Errorf("%s accuracy %.3f outside NetAcuity band", cc, a)
		}
	}
}

func TestDeterminism(t *testing.T) {
	db2 := Build(testW)
	for _, asn := range testW.ASNList[:200] {
		a := testW.ASes[asn]
		for i, p := range a.Prefixes {
			if testDB.prefixCountry[asn][i] != db2.prefixCountry[asn][i] {
				t.Fatalf("prefix %v located differently across builds", p)
			}
		}
	}
}

func TestMostPrefixesCorrect(t *testing.T) {
	correct, total := 0, 0
	for _, asn := range testW.ASNList {
		a := testW.ASes[asn]
		for i := range a.Prefixes {
			total++
			if testDB.prefixCountry[asn][i] == a.Country {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("no prefixes")
	}
	frac := float64(correct) / float64(total)
	if frac < 0.74 || frac > 0.99 {
		t.Errorf("aggregate accuracy %.3f outside expected band", frac)
	}
	if frac == 1.0 {
		t.Error("no misgeolocations at all; noise model inactive")
	}
}

// triplets returns all nonzero triplets, sorted by (country, -addresses,
// origin) for stable consumption.
func triplets(d *DB) []Triplet {
	var out []Triplet
	for origin, per := range d.perOrigin {
		for cc, n := range per {
			out = append(out, Triplet{origin, cc, n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Country != out[j].Country {
			return out[i].Country < out[j].Country
		}
		if out[i].Addresses != out[j].Addresses {
			return out[i].Addresses > out[j].Addresses
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

func TestTotalsConsistent(t *testing.T) {
	// Sum of triplets per country must equal TotalIn.
	sums := map[string]uint64{}
	for _, tr := range triplets(testDB) {
		sums[tr.Country] += tr.Addresses
	}
	for cc, sum := range sums {
		if got := testDB.TotalIn(cc); got != sum {
			t.Errorf("%s: TotalIn %d != triplet sum %d", cc, got, sum)
		}
	}
}

func TestAddressesInMatchesPrefixes(t *testing.T) {
	for _, asn := range testW.ASNList[:300] {
		a := testW.ASes[asn]
		var viaAPI uint64
		for i := range a.Prefixes {
			viaAPI += testDB.AddressesIn(asn, i, testDB.prefixCountry[asn][i])
		}
		if viaAPI != a.NumAddresses() {
			t.Fatalf("AS%d AddressesIn sums to %d, want %d", asn, viaAPI, a.NumAddresses())
		}
		if testDB.NumPrefixes(asn) != len(a.Prefixes) {
			t.Fatalf("AS%d NumPrefixes mismatch", asn)
		}
	}
}

func TestCountryOriginsSorted(t *testing.T) {
	origins := testDB.CountryOrigins("CU")
	if len(origins) == 0 {
		t.Fatal("no CU origins")
	}
	for i := 1; i < len(origins); i++ {
		if origins[i].Addresses > origins[i-1].Addresses {
			t.Fatal("CountryOrigins not sorted by addresses")
		}
	}
}

func TestMisgeolocationStaysInRegion(t *testing.T) {
	// Errors should land in the same macro-region (our declared model).
	for _, asn := range testW.ASNList {
		a := testW.ASes[asn]
		for i := range a.Prefixes {
			got := testDB.prefixCountry[asn][i]
			if got == a.Country {
				continue
			}
			truthRegion := regionOf(t, a.Country)
			gotRegion := regionOf(t, got)
			if truthRegion != gotRegion {
				t.Fatalf("prefix of %s misgeolocated across regions to %s", a.Country, got)
			}
		}
	}
}

func regionOf(t *testing.T, cc string) string {
	t.Helper()
	c, ok := ccodes.ByCode(cc)
	if !ok {
		t.Fatalf("unknown country %s", cc)
	}
	return c.Region.String()
}
