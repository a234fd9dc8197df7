package ccodes

import (
	"reflect"
	"testing"
)

func TestTableIntegrity(t *testing.T) {
	if Count() < 180 {
		t.Fatalf("country table too small: %d", Count())
	}
	seen := map[string]bool{}
	for _, c := range All() {
		if len(c.Code) != 2 {
			t.Errorf("bad code %q", c.Code)
		}
		if seen[c.Code] {
			t.Errorf("duplicate code %q", c.Code)
		}
		seen[c.Code] = true
		if c.Name == "" {
			t.Errorf("%s: empty name", c.Code)
		}
		if c.Region == RegionUnknown {
			t.Errorf("%s: unknown region", c.Code)
		}
		if c.RIR == RIRUnknown {
			t.Errorf("%s: unknown RIR", c.Code)
		}
		if c.Population <= 0 {
			t.Errorf("%s: non-positive population", c.Code)
		}
	}
}

// TestPaperCountriesPresent checks every country code the paper's tables
// mention resolves, since the world generator plants anchors keyed by
// these codes.
func TestPaperCountriesPresent(t *testing.T) {
	codes := []string{
		// Table 3 owners and hosts.
		"AE", "CN", "QA", "NO", "VN", "SG", "MY", "CO", "RS", "ID", "BH",
		"TN", "SA", "FJ", "MU", "BE", "CH", "RU", "SI",
		"AF", "BF", "BJ", "CI", "EG", "GA", "MA", "ML", "MR", "NE", "TD",
		"TG", "AU", "GB", "HK", "MO", "NL", "PK", "US", "ZA", "DZ", "IQ",
		"KW", "MM", "MV", "OM", "PS", "BD", "DK", "FI", "SE", "TH", "BI",
		"CM", "HT", "KH", "LA", "MZ", "PE", "TL", "TZ", "JP", "KR", "LK",
		"TW", "NP", "AR", "BR", "CL", "AT", "BA", "ME", "IM", "JO", "CY",
		"MT", "VU", "UG", "LU", "IT", "AM", "AL",
		// Table 8 high-footprint countries.
		"ET", "TV", "CU", "GL", "DJ", "SY", "ER", "SR", "LY", "YE", "AD",
		"IR", "UY", "TM",
		// §7 / §8 others.
		"UZ", "KZ", "TJ", "AZ", "AO", "CG", "PL", "DE", "FR", "IN", "BY",
		"VE", "CR",
	}
	for _, code := range codes {
		if _, ok := ByCode(code); !ok {
			t.Errorf("paper country %s missing from table", code)
		}
	}
}

func TestRIRGrouping(t *testing.T) {
	total := 0
	for _, r := range AllRIRs() {
		cs := InRIR(r)
		if len(cs) == 0 {
			t.Errorf("RIR %v has no countries", r)
		}
		total += len(cs)
		for _, c := range cs {
			if c.RIR != r {
				t.Errorf("InRIR(%v) returned %s with RIR %v", r, c.Code, c.RIR)
			}
		}
	}
	if total != Count() {
		t.Errorf("RIR partition covers %d of %d countries", total, Count())
	}
}

func TestRegionGrouping(t *testing.T) {
	regions := []Region{Africa, Asia, Europe, NorthAmerica, LatinAmerica, Oceania}
	total := 0
	for _, g := range regions {
		cs := InRegion(g)
		total += len(cs)
	}
	if total != Count() {
		t.Errorf("region partition covers %d of %d countries", total, Count())
	}
}

// TestAllIsSortedCopy: All returns every country sorted by code, as a
// copy: a caller that mutates or re-sorts it changes neither the next
// call's answer nor ByCode's.
func TestAllIsSortedCopy(t *testing.T) {
	all := All()
	if len(all) != Count() {
		t.Fatalf("All returned %d of %d countries", len(all), Count())
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Code >= all[i].Code {
			t.Fatalf("All not strictly sorted by code at %d: %s then %s", i, all[i-1].Code, all[i].Code)
		}
	}
	want := append([]Country(nil), all...)
	first := all[0]
	all[0].Name = "Mutated"
	all[0], all[len(all)-1] = all[len(all)-1], all[0]
	if again := All(); !reflect.DeepEqual(again, want) {
		t.Fatal("mutating All's result changed the next call's answer")
	}
	if c, _ := ByCode(first.Code); c != first {
		t.Fatalf("mutating All's result changed ByCode(%s): %+v", first.Code, c)
	}
}

// TestGroupingsFilterAll: InRIR and InRegion are filters over All, in
// All's order, down to a nil answer for a grouping with no country.
func TestGroupingsFilterAll(t *testing.T) {
	all := All()
	for _, r := range append(AllRIRs(), RIRUnknown) {
		var want []Country
		for _, c := range all {
			if c.RIR == r {
				want = append(want, c)
			}
		}
		if got := InRIR(r); !reflect.DeepEqual(got, want) {
			t.Errorf("InRIR(%v) = %d countries, want the %d of All's filter", r, len(got), len(want))
		}
	}
	for g := RegionUnknown; g <= Oceania; g++ {
		var want []Country
		for _, c := range all {
			if c.Region == g {
				want = append(want, c)
			}
		}
		if got := InRegion(g); !reflect.DeepEqual(got, want) {
			t.Errorf("InRegion(%v) = %d countries, want the %d of All's filter", g, len(got), len(want))
		}
	}
}

func TestSpecificAssignments(t *testing.T) {
	cases := []struct {
		code string
		rir  RIR
		reg  Region
	}{
		{"NO", RIPE, Europe},
		{"SG", APNIC, Asia},
		{"US", ARIN, NorthAmerica},
		{"AR", LACNIC, LatinAmerica},
		{"AO", AFRINIC, Africa},
		{"AU", APNIC, Oceania},
		{"IR", RIPE, Asia}, // Iran is RIPE-served.
		{"EG", AFRINIC, Africa},
		{"GL", RIPE, NorthAmerica}, // Greenland: RIPE via Denmark.
	}
	for _, tc := range cases {
		c := MustByCode(tc.code)
		if c.RIR != tc.rir {
			t.Errorf("%s: RIR = %v, want %v", tc.code, c.RIR, tc.rir)
		}
		if c.Region != tc.reg {
			t.Errorf("%s: region = %v, want %v", tc.code, c.Region, tc.reg)
		}
	}
}

func TestByCodeUnknown(t *testing.T) {
	if _, ok := ByCode("XX"); ok {
		t.Error("ByCode(XX) should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByCode(XX) should panic")
		}
	}()
	MustByCode("XX")
}
