// Package eyeballs simulates APNIC's ad-based per-AS user-population
// estimates (labs.apnic.net). The estimator observes each access AS's
// ground-truth subscriber base through multiplicative sampling noise and
// reports, per country, the estimated user count and the share of the
// country's samples attributed to each AS — the quantities the paper's
// §4.1 eyeball filter consumes.
//
// Coverage mirrors the real dataset's: only ASes that actually serve end
// users appear (the paper's APNIC snapshot covers 25,498 of ~68k ASes),
// and very small populations fall below the sampling floor.
package eyeballs

import (
	"sort"

	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// Estimate is one AS's eyeball estimate within one country.
type Estimate struct {
	AS      world.ASN
	Country string
	// Users is the estimated user population.
	Users int
	// Share is the fraction of the country's sampled eyeballs attributed
	// to this AS.
	Share float64
}

// Dataset is a frozen eyeball snapshot.
type Dataset struct {
	byCountry map[string][]Estimate
}

// samplingFloor is the minimum estimated population that survives the
// ad-sampling process.
const samplingFloor = 200

// Build estimates eyeball populations for the world.
func Build(w *world.World) *Dataset {
	r := rng.New(w.Seed).Sub("eyeballs")
	ds := &Dataset{byCountry: make(map[string][]Estimate)}
	raw := make(map[string][]Estimate)
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		if op.Subscribers == 0 || len(op.ASNs) == 0 {
			continue
		}
		// Subscribers split across the operator's ASNs, front-loaded on
		// the primary AS (mirroring how measured eyeballs concentrate).
		weights := make([]float64, len(op.ASNs))
		weights[0] = 1
		for i := 1; i < len(weights); i++ {
			weights[i] = 0.15 / float64(len(weights))
		}
		var wsum float64
		for _, x := range weights {
			wsum += x
		}
		or := r.Sub("op/" + op.ID)
		for i, asn := range op.ASNs {
			truth := float64(op.Subscribers) * weights[i] / wsum
			est := truth * or.LogNorm(0, 0.20)
			if est < samplingFloor {
				continue
			}
			raw[op.Country] = append(raw[op.Country], Estimate{
				AS: asn, Country: op.Country, Users: int(est),
			})
		}
	}
	for cc, list := range raw {
		var total float64
		for _, e := range list {
			total += float64(e.Users)
		}
		for i := range list {
			list[i].Share = float64(list[i].Users) / total
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].Users != list[j].Users {
				return list[i].Users > list[j].Users
			}
			return list[i].AS < list[j].AS
		})
		ds.byCountry[cc] = list
	}
	return ds
}

// Country returns the country's estimates, largest first.
func (d *Dataset) Country(cc string) []Estimate { return d.byCountry[cc] }
