// Package cti implements the Country-Level Transit Influence metric from
// the paper's Appendix G (Gamero-Garrido):
//
//	CTI(AS, C) = Σ_m  w(m)/|M| · Σ_{p | onpath(AS,m,p)} a(p,C)/A(C) · 1/d(AS,m,p)
//
// where w(m) is the inverse of the number of monitors hosted in m's AS,
// onpath(AS,m,p) holds when AS appears as a *transit* hop on monitor m's
// preferred path toward prefix p (the monitor must not be inside AS, and
// the origin itself is not a transit hop), a(p,C) is the number of p's
// addresses geolocated to country C not covered by a more specific
// prefix, A(C) is C's total geolocated address count, and d is the number
// of AS-level hops between AS and p's origin on that path.
package cti

import (
	"sort"

	"stateowned/internal/bgp"
	"stateowned/internal/world"
)

// PrefixGeo supplies the geolocated address counts CTI weights by. It is
// implemented by the geolocation simulator; tests use literal maps.
type PrefixGeo interface {
	// AddressesIn returns a(p, C): how many of the prefix's addresses
	// geolocate to country C.
	AddressesIn(origin world.ASN, pfxIdx int, country string) uint64
	// TotalIn returns A(C): the country's total geolocated addresses.
	TotalIn(country string) uint64
}

// Score is one AS's transit influence over one country.
type Score struct {
	AS    world.ASN
	Value float64
}

// Computer evaluates CTI for a fixed monitor-path collection.
type Computer struct {
	paths   *bgp.MonitorPaths
	weights []float64 // per-monitor w(m)/|M|
}

// NewComputer prepares per-monitor weights from the path collection.
func NewComputer(paths *bgp.MonitorPaths) *Computer {
	perAS := paths.MonitorsInAS()
	ws := make([]float64, len(paths.Monitors))
	total := float64(len(paths.Monitors))
	for i, m := range paths.Monitors {
		ws[i] = 1 / float64(perAS[m.AS]) / total
	}
	return &Computer{paths: paths, weights: ws}
}

// Country computes CTI(·, C) for every AS observed as transit toward C's
// prefixes, returning scores sorted descending (ties by ascending ASN).
//
// origins lists the responsive origin ASes whose prefixes geolocate to C,
// with their per-origin prefix counts supplied by prefixesOf.
//
// Each origin's monitor row and the shares a(p,C)/A(C) of its prefixes
// holding addresses in C are looked up once, before the monitor loop.
// The monitor stays the outer loop because the loop order fixes the
// order in which each score's terms are summed: a hop adds its
// per-prefix terms in prefix order, and a path never repeats an AS, so
// every score receives its terms in the order a loop over (monitor,
// origin, prefix, hop) would add them.
func (c *Computer) Country(
	country string,
	origins []world.ASN,
	prefixesOf func(world.ASN) int,
	geo PrefixGeo,
) []Score {
	totalAddr := geo.TotalIn(country)
	if totalAddr == 0 {
		return nil
	}
	// observed[k] is an origin some monitor reaches whose prefixes hold
	// addresses in C: its row, and its prefixes' shares in fracs[lo:hi].
	type origin struct {
		row    [][]world.ASN
		lo, hi int
	}
	var observed []origin
	var fracs []float64
	for _, o := range origins {
		row := c.paths.Row(o)
		if row == nil {
			continue // no monitor reaches the origin
		}
		lo := len(fracs)
		for idx := range prefixesOf(o) {
			if a := geo.AddressesIn(o, idx, country); a != 0 {
				fracs = append(fracs, float64(a)/float64(totalAddr))
			}
		}
		if len(fracs) > lo {
			observed = append(observed, origin{row, lo, len(fracs)})
		}
	}
	acc := make(map[world.ASN]float64)
	for mi, m := range c.paths.Monitors {
		w := c.weights[mi]
		for _, o := range observed {
			path := o.row[mi]
			if len(path) < 2 {
				continue // monitor is the origin or origin unreachable
			}
			shares := fracs[o.lo:o.hi]
			// path[0] is the monitor's AS, path[len-1] the origin.
			// Transit hops are path[1:len-1]; additionally the
			// monitor's own AS never scores (m not contained in AS).
			for hop := 1; hop < len(path)-1; hop++ {
				as := path[hop]
				if as == m.AS {
					continue
				}
				d := float64(len(path) - 1 - hop) // AS hops to the origin
				v := acc[as]
				for _, frac := range shares {
					v += w * frac / d
				}
				acc[as] = v
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

// TopK returns the k highest-CTI ASes of a score list (the paper selects
// the two highest-ranked per country for its candidate list).
func TopK(scores []Score, k int) []Score {
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k]
}
