// Package peeringdb simulates PeeringDB: the voluntary, self-reported AS
// registry the paper uses as its second mapping source (§4.2). Coverage
// is partial (~20% of WHOIS-registered ASes in the paper's snapshot) and
// biased toward transit-oriented, peering-active networks in mature
// ecosystems — but the names operators report there are *fresh brand
// names*, which is exactly why the pipeline consults it after WHOIS.
package peeringdb

import (
	"strings"

	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// Entry is one self-reported PeeringDB network record.
type Entry struct {
	ASN     world.ASN
	Name    string // brand name, current
	Website string
	Country string
	// IRRAsSet and NOCEmail round out the operational fields real
	// entries carry; the pipeline only reads Name and Website.
	IRRAsSet string
	NOCEmail string
}

// DB is a frozen PeeringDB snapshot.
type DB struct {
	entries map[world.ASN]Entry
}

// Build samples which operators registered on PeeringDB.
func Build(w *world.World) *DB {
	r := rng.New(w.Seed).Sub("peeringdb")
	db := &DB{entries: make(map[world.ASN]Entry)}
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		prof := w.Profiles[op.Country]
		or := r.Sub("op/" + op.ID)
		// Registration probability: transit networks and incumbents
		// register to attract peers/customers; stubs rarely bother.
		var p float64
		switch op.Kind {
		case world.KindTransit, world.KindSubmarineCable:
			p = 0.45 + 0.4*prof.ICT
		case world.KindIncumbent:
			p = 0.25 + 0.4*prof.ICT
		case world.KindMobile, world.KindRegionalISP:
			p = 0.10 + 0.25*prof.ICT
		case world.KindEnterprise:
			p = 0.03 + 0.12*prof.ICT
		default:
			p = 0.05 + 0.10*prof.ICT
		}
		if !or.Bool(p) {
			continue
		}
		domain := webDomain(op.BrandName, op.Country)
		for _, asn := range op.ASNs {
			// Even registered operators list only some siblings.
			if asn != op.ASNs[0] && !or.Bool(0.5) {
				continue
			}
			db.entries[asn] = Entry{
				ASN:      asn,
				Name:     op.BrandName,
				Website:  "https://www." + domain,
				Country:  op.Country,
				IRRAsSet: "AS-" + strings.ToUpper(firstToken(op.BrandName)),
				NOCEmail: "peering@" + domain,
			}
		}
	}
	return db
}

func firstToken(s string) string {
	f := strings.Fields(s)
	if len(f) == 0 {
		return "NET"
	}
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return -1
	}, f[0])
}

func webDomain(brand, cc string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(brand) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	s := b.String()
	if len(s) > 12 {
		s = s[:12]
	}
	if s == "" {
		s = "example"
	}
	return s + "." + strings.ToLower(cc)
}

// Lookup returns the entry for an ASN.
func (d *DB) Lookup(a world.ASN) (Entry, bool) {
	e, ok := d.entries[a]
	return e, ok
}
