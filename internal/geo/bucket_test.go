package geo

import (
	"reflect"
	"sort"
	"testing"

	"stateowned/internal/faults"
	"stateowned/internal/world"
)

// referenceCountryOrigins is CountryOrigins as it stood before the DB
// bucketed its origins by country, kept verbatim — every origin scanned
// per call — as the oracle for the buckets.
func referenceCountryOrigins(d *DB, country string) []Triplet {
	var out []Triplet
	for origin, per := range d.perOrigin {
		if n := per[country]; n > 0 {
			out = append(out, Triplet{origin, country, n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addresses != out[j].Addresses {
			return out[i].Addresses > out[j].Addresses
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// TestCountryOriginsMatchesReference checks every country's bucket after
// Build, after Degrade and after Quarantine, each of which changes
// per-origin counts.
func TestCountryOriginsMatchesReference(t *testing.T) {
	check := func(stage string, d *DB, w *world.World) {
		t.Helper()
		for _, cc := range append(w.Countries, faults.BadCountry) {
			if got, want := d.CountryOrigins(cc), referenceCountryOrigins(d, cc); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: CountryOrigins(%s) = %v, reference %v", stage, cc, got, want)
			}
		}
	}
	for _, seed := range []uint64{7, 21} {
		w := world.Generate(world.Config{Seed: seed, Scale: 0.1})
		d := Build(w)
		check("Build", d, w)
		if d.Degrade(faults.NewPlan(seed, 0.6).Injector("geo", faults.RecordSpec{DropRate: 0.2, CorruptRate: 0.2})).Zero() {
			t.Fatal("fixture: degradation did nothing")
		}
		check("Degrade", d, w)
		if d.Quarantine() == 0 {
			t.Fatal("fixture: nothing to quarantine")
		}
		check("Quarantine", d, w)
	}
}
