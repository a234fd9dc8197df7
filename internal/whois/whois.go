// Package whois simulates the five RIRs' WHOIS registries: the per-ASN
// records (AS name, org handle, org name, contacts) the paper's §4.2
// company-mapping stage consults first.
//
// The simulator reproduces WHOIS's documented failure modes: OrgName is a
// *legal* name that can lag reality after rebrands and acquisitions (the
// paper's Internexa / "Transamerican Telecomunication S.A." example), and
// sibling ASNs acquired over time may be registered under separate org
// handles with unrelated names — which is precisely what defeats
// WHOIS-based sibling inference (AS2Org).
package whois

import (
	"fmt"
	"sort"
	"strings"

	"stateowned/internal/ccodes"
	"stateowned/internal/faults"
	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// Record is one WHOIS ASN entry with the cross-RIR common fields the
// paper lists: ASN, AS name, organization, and a contact.
type Record struct {
	ASN     world.ASN
	ASName  string
	OrgID   string
	OrgName string
	Country string
	RIR     ccodes.RIR
	Email   string
	URL     string
}

// Registry is a frozen WHOIS snapshot.
type Registry struct {
	records map[world.ASN]Record
	byOrg   map[string][]world.ASN
}

// Build snapshots WHOIS for the world.
func Build(w *world.World) *Registry {
	r := rng.New(w.Seed).Sub("whois")
	reg := &Registry{
		records: make(map[world.ASN]Record),
		byOrg:   make(map[string][]world.ASN),
	}
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		c := ccodes.MustByCode(op.Country)
		prof := w.Profiles[op.Country]
		or := r.Sub("op/" + op.ID)

		// Stale records: when the operator rebranded, low-maturity
		// registries usually still carry the former legal name.
		orgName := op.LegalName
		if op.FormerName != "" && or.Bool(0.9-0.4*prof.ICT) {
			orgName = op.FormerName
		}
		domain := emailDomain(op.BrandName, op.Country)
		for i, asn := range op.ASNs {
			rec := Record{
				ASN:     asn,
				ASName:  w.ASes[asn].Name,
				OrgID:   op.OrgID,
				OrgName: orgName,
				Country: op.Country,
				RIR:     c.RIR,
				Email:   "noc@" + domain,
				URL:     "https://www." + domain,
			}
			// Acquired siblings: registered under a different org with
			// an unrelated name; AS2Org will not cluster them.
			if i > 0 && or.Bool(0.25) {
				alias := fmt.Sprintf("%s Networks %s", strings.ToUpper(rec.ASName[:3]), legalTail(or, c))
				rec.OrgID = fmt.Sprintf("%s-ACQ%d", op.OrgID, i)
				rec.OrgName = alias
				rec.Email = "admin@" + emailDomain(alias, op.Country)
			}
			reg.records[asn] = rec
			reg.byOrg[rec.OrgID] = append(reg.byOrg[rec.OrgID], asn)
		}
	}
	for _, asns := range reg.byOrg {
		world.SortASNs(asns)
	}
	return reg
}

func legalTail(r *rng.Stream, c ccodes.Country) string {
	switch c.RIR {
	case ccodes.LACNIC:
		return "S.A."
	case ccodes.RIPE:
		return "Ltd"
	default:
		return "Limited"
	}
}

// emailDomain derives a contact domain from a brand name.
func emailDomain(brand, cc string) string {
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

// sortedASNs lists the registry's keys in ascending order, the iteration
// order every mutation uses so degraded registries stay deterministic.
func (r *Registry) sortedASNs() []world.ASN {
	asns := make([]world.ASN, 0, len(r.records))
	for a := range r.records {
		asns = append(asns, a)
	}
	world.SortASNs(asns)
	return asns
}

// remove deletes a record and unlinks it from its org handle.
func (r *Registry) remove(a world.ASN) {
	rec, ok := r.records[a]
	if !ok {
		return
	}
	delete(r.records, a)
	kept := r.byOrg[rec.OrgID][:0]
	for _, o := range r.byOrg[rec.OrgID] {
		if o != a {
			kept = append(kept, o)
		}
	}
	if len(kept) == 0 {
		delete(r.byOrg, rec.OrgID)
	} else {
		r.byOrg[rec.OrgID] = kept
	}
}

// Degrade injects the documented WHOIS failure modes into the snapshot:
// records missing from the bulk dump (dropped) and records damaged in
// transfer (mojibake org names, impossible country codes). Corrupt
// records stay in the registry — catching them is the job of the
// validation pass (Quarantine).
func (r *Registry) Degrade(in *faults.Injector) faults.Damage {
	for _, a := range r.sortedASNs() {
		switch in.Next() {
		case faults.Drop:
			r.remove(a)
		case faults.Corrupt:
			rec := r.records[a]
			if in.Coin() {
				rec.OrgName = in.MangleText(rec.OrgName)
			} else {
				rec.Country = faults.BadCountry
			}
			r.records[a] = rec
		}
	}
	return in.Damage()
}

// Quarantine is the validation pass: records with damaged names or
// unresolvable country codes are removed (never propagated to the
// pipeline) and counted.
func (r *Registry) Quarantine() int {
	n := 0
	for _, a := range r.sortedASNs() {
		rec := r.records[a]
		_, ccOK := ccodes.ByCode(rec.Country)
		if faults.Mangled(rec.OrgName) || faults.Mangled(rec.ASName) || !ccOK {
			r.remove(a)
			n++
		}
	}
	return n
}

// Lookup returns the record for an ASN.
func (r *Registry) Lookup(a world.ASN) (Record, bool) {
	rec, ok := r.records[a]
	return rec, ok
}

// ASNsOfOrg returns the ASNs registered under one org handle, sorted.
func (r *Registry) ASNsOfOrg(orgID string) []world.ASN {
	return append([]world.ASN(nil), r.byOrg[orgID]...)
}

// Orgs returns all org handles, sorted.
func (r *Registry) Orgs() []string {
	out := make([]string, 0, len(r.byOrg))
	for o := range r.byOrg {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}
