package cti

import (
	"sort"
	"testing"

	"stateowned/internal/bgp"
	"stateowned/internal/geo"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// prefixRef identifies one prefix by its origin and index within the
// origin's prefix list.
type prefixRef struct {
	origin world.ASN
	idx    int
}

// referenceCountry is Country as it stood before each origin's prefix
// shares and monitor row were looked up once per country, kept verbatim:
// the prefix list is rebuilt and every a(p,C) looked up again for each
// monitor. It is the oracle for Country's summation order.
func referenceCountry(
	c *Computer,
	country string,
	origins []world.ASN,
	prefixesOf func(world.ASN) int,
	geo PrefixGeo,
) []Score {
	totalAddr := geo.TotalIn(country)
	if totalAddr == 0 {
		return nil
	}
	acc := make(map[world.ASN]float64)
	for mi := range c.paths.Monitors {
		w := c.weights[mi]
		monitorAS := c.paths.Monitors[mi].AS
		for _, origin := range origins {
			path := c.paths.Path(mi, origin)
			if len(path) < 2 {
				continue // monitor is the origin or origin unreachable
			}
			for _, ref := range prefixRefs(origin, prefixesOf(origin)) {
				a := geo.AddressesIn(ref.origin, ref.idx, country)
				if a == 0 {
					continue
				}
				frac := float64(a) / float64(totalAddr)
				// path[0] is the monitor's AS, path[len-1] the origin.
				// Transit hops are path[1:len-1]; additionally the
				// monitor's own AS never scores (m not contained in AS).
				for hop := 1; hop < len(path)-1; hop++ {
					as := path[hop]
					if as == monitorAS {
						continue
					}
					d := len(path) - 1 - hop // AS hops to the origin
					acc[as] += w * frac / float64(d)
				}
			}
		}
	}
	out := make([]Score, 0, len(acc))
	for as, v := range acc {
		out = append(out, Score{AS: as, Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].AS < out[j].AS
	})
	return out
}

func prefixRefs(origin world.ASN, n int) []prefixRef {
	out := make([]prefixRef, n)
	for i := range out {
		out[i] = prefixRef{origin, i}
	}
	return out
}

// TestCountryMatchesReference holds Country to referenceCountry with ==
// on every score, over every country with geolocated addresses (a
// superset of the pipeline's CTI countries) in three worlds, with each
// country's origins in the pipeline's ascending order and paths from the
// pipeline's monitor selection.
func TestCountryMatchesReference(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		w := world.Generate(world.Config{Seed: seed, Scale: 0.1})
		g := topology.Build(w, topology.FinalYear)
		db := geo.Build(w)
		perCountry := map[string][]world.ASN{}
		seen := map[world.ASN]bool{}
		var all []world.ASN
		for _, cc := range w.Countries {
			for _, tr := range db.CountryOrigins(cc) {
				perCountry[cc] = append(perCountry[cc], tr.Origin)
				if !seen[tr.Origin] {
					seen[tr.Origin] = true
					all = append(all, tr.Origin)
				}
			}
			world.SortASNs(perCountry[cc])
		}
		world.SortASNs(all)
		comp := NewComputer(bgp.CollectPaths(g, bgp.SelectMonitors(w, g, 0), all, 0, nil))
		scored, largest := 0, 0.0
		for _, cc := range w.Countries {
			got := comp.Country(cc, perCountry[cc], db.NumPrefixes, db)
			want := referenceCountry(comp, cc, perCountry[cc], db.NumPrefixes, db)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d scores, reference %d", seed, cc, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: score %d is %+v, reference %+v", seed, cc, i, got[i], want[i])
				}
				if v := got[i].Value; v < 0 || v > scoreMax {
					t.Fatalf("seed %d %s: score %d is %g, outside [0, 1]", seed, cc, i, v)
				}
				largest = max(largest, got[i].Value)
			}
			scored += len(got)
		}
		if scored == 0 {
			t.Fatalf("seed %d: no country scored any AS", seed)
		}
		t.Logf("seed %d: largest score %.3f", seed, largest)
	}
}
