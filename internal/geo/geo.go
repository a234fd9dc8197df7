// Package geo simulates a commercial country-level IP geolocation service
// (the paper uses Digital Element's NetAcuity). Every routed prefix is
// assigned a country; assignments are correct with a per-country accuracy
// drawn from the 74-98% band the paper's footnote 3 cites for NetAcuity
// at country granularity, with errors biased toward neighboring countries
// in the same region (the dominant real-world failure mode).
package geo

import (
	"sort"

	"stateowned/internal/ccodes"
	"stateowned/internal/faults"
	"stateowned/internal/netaddr"
	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// DB is a frozen geolocation snapshot for one world.
type DB struct {
	// loc[prefix] = assigned country
	loc map[netaddr.Prefix]string
	// perOrigin[origin][country] = addresses the DB places there
	perOrigin map[world.ASN]map[string]uint64
	// prefixCountry[origin][i] = assigned country of origin's i-th prefix
	prefixCountry map[world.ASN][]string
	// prefixAddrs[origin][i] = address count of origin's i-th prefix
	prefixAddrs map[world.ASN][]uint64
	// prefixes[origin][i] = origin's i-th prefix (keeps loc consistent
	// when degradation reassigns or unassigns entries)
	prefixes map[world.ASN][]netaddr.Prefix
	totals   map[string]uint64
	accuracy map[string]float64
	// byCountry[cc] is CountryOrigins(cc). Build, Degrade and Quarantine
	// rebuild it as their last step, never lazily: a published DB is
	// shared read-only between generations.
	byCountry map[string][]Triplet
}

// Build geolocates every prefix of the world.
func Build(w *world.World) *DB {
	r := rng.New(w.Seed).Sub("geo")
	db := &DB{
		loc:           make(map[netaddr.Prefix]string),
		perOrigin:     make(map[world.ASN]map[string]uint64),
		prefixCountry: make(map[world.ASN][]string),
		prefixAddrs:   make(map[world.ASN][]uint64),
		prefixes:      make(map[world.ASN][]netaddr.Prefix),
		totals:        make(map[string]uint64),
		accuracy:      make(map[string]float64),
	}

	// Per-country accuracy in [0.74, 0.98], higher for mature ecosystems
	// (better registry data to mine).
	neighbors := make(map[string][]string)
	for _, cc := range w.Countries {
		c := ccodes.MustByCode(cc)
		prof := w.Profiles[cc]
		db.accuracy[cc] = 0.74 + 0.24*prof.ICT
		for _, o := range ccodes.InRegion(c.Region) {
			if o.Code != cc {
				neighbors[cc] = append(neighbors[cc], o.Code)
			}
		}
		sort.Strings(neighbors[cc])
	}

	for _, asn := range w.ASNList {
		a := w.ASes[asn]
		cr := r.Sub("as/" + a.Name)
		for _, p := range a.Prefixes {
			truth := a.Country
			assigned := truth
			if !cr.Bool(db.accuracy[truth]) {
				if nb := neighbors[truth]; len(nb) > 0 && len(w.Countries) > 1 {
					assigned = nb[cr.Intn(len(nb))]
					if _, inWorld := w.Profiles[assigned]; !inWorld {
						assigned = truth
					}
				}
			}
			db.loc[p] = assigned
			db.prefixCountry[asn] = append(db.prefixCountry[asn], assigned)
			db.prefixAddrs[asn] = append(db.prefixAddrs[asn], p.NumAddresses())
			db.prefixes[asn] = append(db.prefixes[asn], p)
			po := db.perOrigin[asn]
			if po == nil {
				po = make(map[string]uint64)
				db.perOrigin[asn] = po
			}
			po[assigned] += p.NumAddresses()
			db.totals[assigned] += p.NumAddresses()
		}
	}
	db.bucket()
	return db
}

// bucket groups the per-origin address counts by country, each country's
// origins by descending address count, then ascending origin.
func (d *DB) bucket() {
	d.byCountry = make(map[string][]Triplet)
	for origin, per := range d.perOrigin {
		for cc, n := range per {
			if n > 0 {
				d.byCountry[cc] = append(d.byCountry[cc], Triplet{origin, cc, n})
			}
		}
	}
	for _, out := range d.byCountry {
		sort.Slice(out, func(i, j int) bool {
			if out[i].Addresses != out[j].Addresses {
				return out[i].Addresses > out[j].Addresses
			}
			return out[i].Origin < out[j].Origin
		})
	}
}

// Locate returns the assigned country of a prefix ("" if unknown).
func (d *DB) Locate(p netaddr.Prefix) string { return d.loc[p] }

// sortedOrigins lists origins ascending — the deterministic iteration
// order every degradation mutation uses.
func (d *DB) sortedOrigins() []world.ASN {
	origins := make([]world.ASN, 0, len(d.prefixCountry))
	for o := range d.prefixCountry {
		origins = append(origins, o)
	}
	world.SortASNs(origins)
	return origins
}

// unassign removes one prefix assignment from every derived view; the
// entry stays in the per-origin slices with country "" so prefix indices
// (the CTI contract) keep their alignment.
func (d *DB) unassign(origin world.ASN, i int) {
	cc := d.prefixCountry[origin][i]
	if cc == "" {
		return
	}
	n := d.prefixAddrs[origin][i]
	if po := d.perOrigin[origin]; po != nil {
		if po[cc] -= n; po[cc] == 0 {
			delete(po, cc)
		}
	}
	if d.totals[cc] -= n; d.totals[cc] == 0 {
		delete(d.totals, cc)
	}
	d.prefixCountry[origin][i] = ""
	delete(d.loc, d.prefixes[origin][i])
}

// reassign moves one prefix assignment to another country.
func (d *DB) reassign(origin world.ASN, i int, to string) {
	d.unassign(origin, i)
	n := d.prefixAddrs[origin][i]
	po := d.perOrigin[origin]
	if po == nil {
		po = make(map[string]uint64)
		d.perOrigin[origin] = po
	}
	po[to] += n
	d.totals[to] += n
	d.prefixCountry[origin][i] = to
	d.loc[d.prefixes[origin][i]] = to
}

// Degrade injects geolocation-feed faults: prefixes missing from the
// vendor snapshot (dropped — the DB simply does not know them) and
// prefixes assigned an impossible country (corrupted — left in place for
// the validation pass to catch).
func (d *DB) Degrade(in *faults.Injector) faults.Damage {
	for _, origin := range d.sortedOrigins() {
		for i := range d.prefixCountry[origin] {
			switch in.Next() {
			case faults.Drop:
				d.unassign(origin, i)
			case faults.Corrupt:
				d.reassign(origin, i, faults.BadCountry)
			}
		}
	}
	d.bucket()
	return in.Damage()
}

// Quarantine is the validation pass: assignments to countries that do
// not resolve in the ISO table are unassigned (treated as unknown, never
// propagated into per-country totals the pipeline consumes) and counted.
func (d *DB) Quarantine() int {
	n := 0
	for _, origin := range d.sortedOrigins() {
		for i, cc := range d.prefixCountry[origin] {
			if cc == "" {
				continue
			}
			if _, ok := ccodes.ByCode(cc); !ok {
				d.unassign(origin, i)
				n++
			}
		}
	}
	d.bucket()
	return n
}

// Accuracy returns the simulated accuracy for a country's prefixes.
func (d *DB) Accuracy(cc string) float64 { return d.accuracy[cc] }

// Triplet is the paper's §4.1 unit: <origin ASN, country, #addresses the
// origin originates in that country (per this DB)>.
type Triplet struct {
	Origin    world.ASN
	Country   string
	Addresses uint64
}

// Triplets returns all nonzero triplets, sorted by (country, -addresses,
// origin) for stable consumption.
func (d *DB) Triplets() []Triplet {
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

// AddressesIn implements cti.PrefixGeo: a(p, C) for origin's idx-th
// prefix. All of a prefix's addresses count toward its assigned country
// (the simulator assigns whole prefixes and originates disjoint ones, so
// no more-specific carve-outs apply).
func (d *DB) AddressesIn(origin world.ASN, idx int, country string) uint64 {
	cs := d.prefixCountry[origin]
	if idx >= len(cs) || cs[idx] != country {
		return 0
	}
	return d.prefixAddrs[origin][idx]
}

// NumPrefixes returns how many prefixes the origin announces (per the DB).
func (d *DB) NumPrefixes(origin world.ASN) int { return len(d.prefixAddrs[origin]) }

// OriginAddressesIn returns how many addresses the origin originates that
// this DB geolocates to the country.
func (d *DB) OriginAddressesIn(origin world.ASN, country string) uint64 {
	return d.perOrigin[origin][country]
}

// TotalIn returns A(C): the country's geolocated address total.
func (d *DB) TotalIn(country string) uint64 { return d.totals[country] }

// CountryOrigins returns the origins with any address space geolocated to
// the country, sorted by descending address count, then ascending origin.
// The slice is shared: callers must not modify it.
func (d *DB) CountryOrigins(country string) []Triplet { return d.byCountry[country] }
