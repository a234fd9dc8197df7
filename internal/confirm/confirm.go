// Package confirm implements stage 2 of the paper's pipeline (§5): the
// (here mechanized) manual verification of every candidate company.
//
// For each candidate the analyst (i) resolves the company to ASNs when
// the candidate arrived as a bare name, (ii) applies the scope filters of
// §5.3 — subnational operators, academic networks, government office
// networks, Internet-administration bodies and non-ISP telecom firms are
// excluded, (iii) searches the documentary corpus for an authoritative
// source stating the ownership structure, consulting source types in the
// priority order the paper reports (company website first, then annual
// reports, Freedom House, CommsUpdate, the credit agencies, ITU, FCC,
// news, regulators), and (iv) classifies the company as majority
// state-owned (>= 50% aggregated equity, the IMF criterion), minority
// state-owned, private, or unconfirmable.
//
// Confirmed companies are then mined for subsidiaries: their websites and
// annual reports list controlled companies, each of which enters the
// queue as a new (enriched) candidate — this is how foreign subsidiaries
// are discovered (§5.2).
package confirm

import (
	"fmt"
	"sort"
	"strings"

	"stateowned/internal/candidates"
	"stateowned/internal/docsrc"
	"stateowned/internal/nameutil"
	"stateowned/internal/peeringdb"
	"stateowned/internal/sched"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// Verdict classifies a candidate after verification.
type Verdict uint8

// Verdicts.
const (
	StateOwned Verdict = iota
	MinorityOwned
	Private
	OutOfScope
	NoASNFound
	Unconfirmed
)

// String names the verdict.
func (v Verdict) String() string {
	return [...]string{"state-owned", "minority", "private", "out-of-scope", "no-asn", "unconfirmed"}[v]
}

// Confirmed is one verified majority state-owned Internet operator.
type Confirmed struct {
	Company candidates.Company
	Owner   string  // controlling state's country code
	Share   float64 // aggregated state equity (0 when confirmed via parent listing)
	Source  docsrc.SourceType
	Quote   string
	Lang    string
	URL     string

	ForeignSubsidiary bool
	ParentName        string // set when discovered via a parent's documents
}

// Minority is a company with a recorded sub-majority state stake (§7).
type Minority struct {
	Company candidates.Company
	Owner   string
	Share   float64
}

// Excluded records a filtered candidate and why.
type Excluded struct {
	Company candidates.Company
	Verdict Verdict
	Reason  string
}

// Result is stage 2's output.
type Result struct {
	Confirmed []Confirmed
	Minority  []Minority
	Excluded  []Excluded
}

// Inputs bundles the registries stage 2 consults.
type Inputs struct {
	WHOIS     *whois.Registry
	PeeringDB *peeringdb.DB
	Docs      *docsrc.Corpus
	// Workers bounds the pool that verifies the first-pass candidates
	// (sched.Workers: 0 selects GOMAXPROCS, 1 runs serially). The result
	// is the same for every value.
	Workers int
}

// scopeKeywords maps name fragments to §5.3 exclusion categories.
var scopeKeywords = []struct{ fragment, category string }{
	{"university", "academic network"},
	{"research and education", "academic network"},
	{"academic", "academic network"},
	{"nic", "internet administration"},
	{"government of", "government bureaucratic network"},
	{"it directorate", "government bureaucratic network"},
	{"federal network", "government bureaucratic network"},
	{"ministry", "government bureaucratic network"},
	{"municipal", "subnational operator"},
	{"province", "subnational operator"},
	{"hosting", "not an Internet operator"},
	{"datacenter", "not an Internet operator"},
	{"cloud", "not an Internet operator"},
	{"systems", "not an Internet operator"},
	{"media", "not an Internet operator"},
	{"broadcasting", "not an Internet operator"},
	{"equipment", "not an Internet operator"},
	{"tower infrastructure", "not an Internet operator"},
	{"satellite company", "not an Internet operator"},
}

// scopeCheck returns the exclusion category a name triggers, if any.
// Fragments match on word boundaries so that e.g. "beCloud" is not
// excluded by the "cloud" keyword.
func scopeCheck(name string) (string, bool) {
	n := " " + strings.ToLower(name) + " "
	for _, kw := range scopeKeywords {
		if strings.Contains(n, " "+kw.fragment+" ") {
			return kw.category, true
		}
	}
	return "", false
}

// Run executes stage 2 on the stage-1 candidates. Before its queue
// loop it verifies, on the in.Workers pool, every candidate whose
// country/name key appears for the first time: exactly the
// verifications the loop makes without parent context before any
// subsidiary joins the queue. The loop then reads those results and
// still makes the re-verifications and the subsidiaries' verifications
// itself, in queue order. verify is a pure function of its arguments
// and the frozen inputs, and an analyst's caches only memoize it, so
// each worker keeps its own caches (pool[0] is the loop's analyst, so
// a serial run prepares no identity twice) and the order of work
// cannot change the result.
func Run(in Inputs, cands []candidates.Company) *Result {
	a := &analyst{in: in}
	a.buildNameIndex()
	res := &Result{}

	type queued struct {
		company candidates.Company
		key     string // country/normalized name
		parent  string
		owner   string
	}
	queue := make([]queued, 0, len(cands))
	var firsts []int // queue indices of each key's first candidate
	seenKey := make(map[string]bool, len(cands))
	for i, c := range cands {
		key := c.Country + "/" + nameutil.Normalize(c.Name)
		queue = append(queue, queued{company: c, key: key})
		if !seenKey[key] {
			seenKey[key] = true
			firsts = append(firsts, i)
		}
	}
	pool := make([]*analyst, sched.Workers(in.Workers))
	pool[0] = a
	for w := 1; w < len(pool); w++ {
		pool[w] = a.fork()
	}
	verified := make([]verification, len(cands))
	sched.ParallelFor(in.Workers, len(firsts), func(w, j int) {
		i := firsts[j]
		verified[i] = pool[w].verify(cands[i], "", "")
	})

	// A candidate verified without parent context can be excluded as
	// "unconfirmed" and later reappear as a parent's listed subsidiary;
	// the parent's documents are new evidence, so such candidates are
	// re-verified (tracked via exclIdx tombstones).
	type outcome struct {
		verdict Verdict
		exclIdx int // index into res.Excluded, -1 otherwise
		company candidates.Company
	}
	outcomes := map[string]*outcome{}
	removed := map[int]bool{}

	enqueueSubs := func(conf Confirmed) {
		for _, ref := range a.subsidiaries(conf) {
			queue = append(queue, queued{
				company: candidates.Company{
					Name: ref.Name, Country: ref.Country,
					NameSource: "subsidiary-listing",
					Sources:    conf.Company.Sources,
				},
				key:    ref.Country + "/" + nameutil.Normalize(ref.Name),
				parent: conf.Company.Name,
				owner:  conf.Owner,
			})
		}
	}

	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		c, key := q.company, q.key
		if prev, seen := outcomes[key]; seen {
			retriable := prev.verdict == Unconfirmed || prev.verdict == NoASNFound
			if q.parent == "" || !retriable {
				continue
			}
			// Re-verify with parent context, merging the richer earlier
			// candidate data (ASNs, source tags) into this one.
			c.ASNs = append(append([]world.ASN(nil), prev.company.ASNs...), c.ASNs...)
			c.Sources = c.Sources.Union(prev.company.Sources)
			out := a.verify(c, q.parent, q.owner)
			if out.verdict != StateOwned {
				continue
			}
			if prev.exclIdx >= 0 {
				removed[prev.exclIdx] = true
			}
			outcomes[key] = &outcome{verdict: StateOwned, exclIdx: -1, company: c}
			res.Confirmed = append(res.Confirmed, out.confirmed)
			enqueueSubs(out.confirmed)
			continue
		}

		var out verification
		if qi < len(cands) {
			out = verified[qi] // the key's first candidate, verified above
		} else {
			out = a.verify(c, q.parent, q.owner)
		}
		o := &outcome{verdict: out.verdict, exclIdx: -1, company: c}
		outcomes[key] = o
		switch out.verdict {
		case StateOwned:
			res.Confirmed = append(res.Confirmed, out.confirmed)
			enqueueSubs(out.confirmed)
		case MinorityOwned:
			res.Minority = append(res.Minority, out.minority)
		default:
			o.exclIdx = len(res.Excluded)
			res.Excluded = append(res.Excluded, Excluded{Company: c, Verdict: out.verdict, Reason: out.reason})
		}
	}

	if len(removed) > 0 {
		kept := res.Excluded[:0]
		for i, e := range res.Excluded {
			if !removed[i] {
				kept = append(kept, e)
			}
		}
		res.Excluded = kept
	}
	sortResult(res)
	return res
}

func sortResult(res *Result) {
	sort.Slice(res.Confirmed, func(i, j int) bool {
		a, b := res.Confirmed[i], res.Confirmed[j]
		if a.Company.Country != b.Company.Country {
			return a.Company.Country < b.Company.Country
		}
		return a.Company.Name < b.Company.Name
	})
	sort.Slice(res.Minority, func(i, j int) bool {
		a, b := res.Minority[i], res.Minority[j]
		if a.Company.Country != b.Company.Country {
			return a.Company.Country < b.Company.Country
		}
		return a.Company.Name < b.Company.Name
	})
	sort.Slice(res.Excluded, func(i, j int) bool {
		a, b := res.Excluded[i], res.Excluded[j]
		if a.Company.Country != b.Company.Country {
			return a.Company.Country < b.Company.Country
		}
		return a.Company.Name < b.Company.Name
	})
}

type analyst struct {
	in Inputs

	// Registry names for the reverse company-to-AS mapping, bucketed by
	// country in registry order. A country's names are prepared the
	// first time that country is queried (orgIdents); most countries
	// never are.
	orgs      map[string][]registryName
	orgIdents map[string][]candidates.Identity

	// idents memoizes the prepared identity of every candidate, alias
	// and document name the analyst compares, per country.
	idents map[identKey]candidates.Identity
}

type registryName struct {
	name string
	asns []world.ASN
}

type identKey struct{ name, country string }

func (a *analyst) buildNameIndex() {
	a.orgs = make(map[string][]registryName)
	a.orgIdents = make(map[string][]candidates.Identity)
	a.idents = make(map[identKey]candidates.Identity)
	for _, orgID := range a.in.WHOIS.Orgs() {
		asns := a.in.WHOIS.ASNsOfOrg(orgID)
		if len(asns) == 0 {
			continue
		}
		rec, _ := a.in.WHOIS.Lookup(asns[0])
		a.orgs[rec.Country] = append(a.orgs[rec.Country], registryName{rec.OrgName, asns})
		// PeeringDB brand names index the same ASNs under fresher names.
		if e, ok := a.in.PeeringDB.Lookup(asns[0]); ok {
			a.orgs[rec.Country] = append(a.orgs[rec.Country], registryName{e.Name, asns})
		}
	}
}

// fork returns an analyst over the same inputs and registry-name index
// with caches of its own, for one pool worker.
func (a *analyst) fork() *analyst {
	return &analyst{
		in:        a.in,
		orgs:      a.orgs,
		orgIdents: make(map[string][]candidates.Identity),
		idents:    make(map[identKey]candidates.Identity),
	}
}

// identity returns the prepared identity of a name in a country.
func (a *analyst) identity(name, country string) candidates.Identity {
	k := identKey{name, country}
	id, ok := a.idents[k]
	if !ok {
		id = candidates.NewIdentity(name, country)
		a.idents[k] = id
	}
	return id
}

// mapNameToASNs resolves a company name to ASNs registered in the
// country (§6 runs §4.2's mapping "in reverse"). The match must pass the
// same-company predicate; the best-scoring passing record wins.
func (a *analyst) mapNameToASNs(name, country string) []world.ASN {
	orgs := a.orgs[country]
	ids, ok := a.orgIdents[country]
	if !ok {
		ids = make([]candidates.Identity, len(orgs))
		for i, o := range orgs {
			ids[i] = candidates.NewIdentity(o.name, country)
		}
		a.orgIdents[country] = ids
	}
	q := a.identity(name, country)
	best, bestScore := -1, 0.0
	for i, id := range ids {
		if !q.Same(id) {
			continue
		}
		if s := q.Name.Similarity(id.Name); s > bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		return nil
	}
	return append([]world.ASN(nil), orgs[best].asns...)
}

type verification struct {
	verdict   Verdict
	confirmed Confirmed
	minority  Minority
	reason    string
}

// verify runs the per-candidate decision procedure.
func (a *analyst) verify(c candidates.Company, parentName, parentOwner string) verification {
	// Scope filters apply to the candidate's own name and to the WHOIS
	// names behind its ASNs.
	if cat, bad := scopeCheck(c.Name); bad {
		return verification{verdict: OutOfScope, reason: cat}
	}
	for _, asn := range c.ASNs {
		if rec, ok := a.in.WHOIS.Lookup(asn); ok {
			if cat, bad := scopeCheck(rec.OrgName); bad {
				return verification{verdict: OutOfScope, reason: cat}
			}
		}
	}

	// Company-only candidates need ASNs to be Internet operators.
	if len(c.ASNs) == 0 {
		c.ASNs = a.mapNameToASNs(c.Name, c.Country)
		if len(c.ASNs) == 0 {
			return verification{verdict: NoASNFound,
				reason: "no ASN found for company (operator without AS, non-ISP, or mapping failure)"}
		}
		// The mapped records can reveal an out-of-scope organization the
		// candidate name alone did not.
		for _, asn := range c.ASNs {
			if rec, ok := a.in.WHOIS.Lookup(asn); ok {
				if cat, bad := scopeCheck(rec.OrgName); bad {
					return verification{verdict: OutOfScope, reason: cat}
				}
			}
		}
	}

	// Documentary verification in source-priority order, searching
	// under every name the company is known by (candidate name, WHOIS
	// legal names, PeeringDB brand names).
	doc, ok := a.bestOwnershipDoc(a.aliases(c), c.Country)
	if !ok {
		// Subsidiary candidates inherit confirmation from the parent's
		// own authoritative documents (§5.2: ownership is established
		// from the parent side).
		if parentName != "" {
			conf := Confirmed{
				Company: c, Owner: parentOwner,
				Source: docsrc.AnnualReport,
				Quote:  fmt.Sprintf("Listed among the consolidated subsidiaries of %s.", parentName),
				Lang:   "English", URL: "",
				ForeignSubsidiary: parentOwner != c.Country,
				ParentName:        parentName,
			}
			return verification{verdict: StateOwned, confirmed: conf}
		}
		return verification{verdict: Unconfirmed,
			reason: "no authoritative source states the ownership structure"}
	}

	switch {
	case doc.ReportedOwner != "" && doc.ReportedShare >= 0.50:
		conf := Confirmed{
			Company: c, Owner: doc.ReportedOwner, Share: doc.ReportedShare,
			Source: doc.Source, Quote: doc.Quote, Lang: doc.Lang, URL: doc.URL,
			ForeignSubsidiary: doc.ReportedOwner != c.Country,
			ParentName:        parentName,
		}
		return verification{verdict: StateOwned, confirmed: conf}
	case doc.ReportedOwner != "" && doc.ReportedShare > 0:
		return verification{verdict: MinorityOwned, minority: Minority{
			Company: c, Owner: doc.ReportedOwner, Share: doc.ReportedShare,
		}}
	default:
		return verification{verdict: Private, reason: "authoritative source reports private ownership"}
	}
}

// aliases collects every name the company is known by.
func (a *analyst) aliases(c candidates.Company) []string {
	names := []string{c.Name}
	seen := map[string]bool{nameutil.Normalize(c.Name): true}
	add := func(n string) {
		key := nameutil.Normalize(n)
		if n != "" && !seen[key] {
			seen[key] = true
			names = append(names, n)
		}
	}
	for _, asn := range c.ASNs {
		if rec, ok := a.in.WHOIS.Lookup(asn); ok {
			add(rec.OrgName)
		}
		if e, ok := a.in.PeeringDB.Lookup(asn); ok {
			add(e.Name)
		}
	}
	// §4.2's domain chase: when the registered legal name shares nothing
	// with the brand (TransTeleCom vs "TTK"), the analyst follows the
	// WHOIS contact domain to the company's own website and adopts the
	// name found there — but only when the site's URL actually carries
	// that domain, so a stem collision cannot smuggle in another
	// company's identity.
	if len(c.ASNs) > 0 {
		if rec, ok := a.in.WHOIS.Lookup(c.ASNs[0]); ok {
			if at := strings.IndexByte(rec.Email, '@'); at >= 0 {
				stem := strings.SplitN(rec.Email[at+1:], ".", 2)[0]
				if len(stem) >= 2 {
					for _, d := range a.in.Docs.Search(stem, c.Country) {
						if strings.Contains(d.URL, "//www."+stem) {
							add(d.CompanyName)
							break
						}
					}
				}
			}
		}
	}
	return names
}

// bestOwnershipDoc picks the authoritative ownership-stating document
// with the highest source priority among documents tightly matching any
// of the company's names.
func (a *analyst) bestOwnershipDoc(names []string, country string) (docsrc.Document, bool) {
	bestPriority := 255
	var best docsrc.Document
	found := false
	for _, name := range names {
		q := a.identity(name, country)
		for _, d := range a.in.Docs.Search(name, country) {
			if !d.Source.Authoritative() || !d.StatesOwnership {
				continue
			}
			if !q.Same(a.identity(d.CompanyName, country)) {
				continue
			}
			if p := int(d.Source); p < bestPriority {
				bestPriority = p
				best = d
				found = true
			}
		}
	}
	return best, found
}

// subsidiaries collects the subsidiary references from a confirmed
// company's website/annual-report documents, searched under all of its
// known names.
func (a *analyst) subsidiaries(c Confirmed) []docsrc.SubsidiaryRef {
	seen := map[string]bool{}
	var out []docsrc.SubsidiaryRef
	for _, name := range a.aliases(c.Company) {
		q := a.identity(name, c.Company.Country)
		for _, d := range a.in.Docs.Search(name, c.Company.Country) {
			if d.Source != docsrc.CompanyWebsite && d.Source != docsrc.AnnualReport {
				continue
			}
			if !q.Same(a.identity(d.CompanyName, c.Company.Country)) {
				continue
			}
			for _, ref := range d.Subsidiaries {
				key := ref.Country + "/" + nameutil.Normalize(ref.Name)
				if !seen[key] {
					seen[key] = true
					out = append(out, ref)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Country != out[j].Country {
			return out[i].Country < out[j].Country
		}
		return out[i].Name < out[j].Name
	})
	return out
}
