// Package as2org reimplements the inference behind CAIDA's AS-to-
// Organization mapping (Cai et al., IMC 2010): ASNs are clustered into
// organizations by the WHOIS organization records they are registered
// under. The paper uses AS2Org twice — to count distinct organizations in
// stage 1 and to expand confirmed companies to their sibling ASNs in
// stage 3 — and documents its key limitation: siblings registered under
// different org records (post-acquisition) are not clustered, which this
// implementation faithfully inherits from the simulated WHOIS.
package as2org

import (
	"sort"

	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// Org is one inferred organization.
type Org struct {
	ID      string // org handle (from WHOIS)
	Name    string
	Country string
	ASNs    []world.ASN
}

// Mapping is the frozen AS2Org dataset.
type Mapping struct {
	orgOf map[world.ASN]*Org
	orgs  map[string]*Org
}

// Infer clusters the registry's ASNs by their WHOIS org handle.
func Infer(reg *whois.Registry) *Mapping {
	m := &Mapping{
		orgOf: make(map[world.ASN]*Org),
		orgs:  make(map[string]*Org),
	}
	for _, orgID := range reg.Orgs() {
		asns := reg.ASNsOfOrg(orgID)
		if len(asns) == 0 {
			continue
		}
		rec, _ := reg.Lookup(asns[0])
		org := &Org{ID: orgID, Name: rec.OrgName, Country: rec.Country, ASNs: asns}
		m.orgs[orgID] = org
		for _, a := range asns {
			m.orgOf[a] = org
		}
	}
	return m
}

// OrgOf returns the organization an ASN belongs to.
func (m *Mapping) OrgOf(a world.ASN) (*Org, bool) {
	org, ok := m.orgOf[a]
	return org, ok
}

// Siblings returns the other ASNs in the same inferred organization.
func (m *Mapping) Siblings(a world.ASN) []world.ASN {
	org, ok := m.OrgOf(a)
	if !ok {
		return nil
	}
	var out []world.ASN
	for _, s := range org.ASNs {
		if s != a {
			out = append(out, s)
		}
	}
	return out
}

// NumOrgs reports how many organizations were inferred.
func (m *Mapping) NumOrgs() int { return len(m.orgs) }

// Orgs returns all org IDs, sorted.
func (m *Mapping) Orgs() []string {
	out := make([]string, 0, len(m.orgs))
	for id := range m.orgs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Org returns one organization by ID.
func (m *Mapping) Org(id string) (*Org, bool) {
	o, ok := m.orgs[id]
	return o, ok
}

// DistinctOrgs counts the organizations behind a set of ASNs (the paper's
// "1091 ASes ... belong to 1023 different organizations" statistic). An
// unregistered ASN counts as its own organization.
func (m *Mapping) DistinctOrgs(asns []world.ASN) int {
	orgs := map[*Org]bool{}
	unregistered := map[world.ASN]bool{}
	for _, a := range asns {
		if org, ok := m.orgOf[a]; ok {
			orgs[org] = true
		} else {
			unregistered[a] = true
		}
	}
	return len(orgs) + len(unregistered)
}
