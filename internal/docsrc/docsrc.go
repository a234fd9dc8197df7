// Package docsrc simulates the documentary universe the paper's manual
// confirmation stage (§5) consults: company websites and annual reports,
// Freedom House "Freedom on the Net" reports, Wikipedia articles, World
// Bank and IMF country reports, ITU commission documents, US FCC/SEC
// filings, CommsUpdate news stories, local-regulator disclosures and
// general news.
//
// Each source type has its own coverage model (who gets documented) and
// reliability model (whether ownership claims reflect the ground truth),
// calibrated to the paper's findings: company websites confirm about half
// of all companies; Freedom House has no false positives but covers only 65
// countries; Wikipedia contains stale post-privatization claims; credit
// agencies cover the developing world.
package docsrc

import (
	"fmt"
	"sort"
	"strings"

	"stateowned/internal/ccodes"
	"stateowned/internal/faults"
	"stateowned/internal/nameutil"
	"stateowned/internal/ownership"
	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// SourceType enumerates the confirmation-source classes of Table 1.
type SourceType uint8

// Source types in the priority order the paper's analysts consulted them.
const (
	CompanyWebsite SourceType = iota
	AnnualReport
	FreedomHouse
	CommsUpdate
	WorldBank
	ITU
	FCC
	News
	Regulator
	Wikipedia // candidate source; used for confirmation only as "Others"
	IMF
)

// String names the source as Table 1 prints it.
func (s SourceType) String() string {
	switch s {
	case CompanyWebsite:
		return "Company's website"
	case AnnualReport:
		return "Company's annual report"
	case FreedomHouse:
		return "Freedom House"
	case CommsUpdate:
		return "TG's commsupdate"
	case WorldBank:
		return "World Bank"
	case ITU:
		return "ITU"
	case FCC:
		return "FCC"
	case News:
		return "News"
	case Regulator:
		return "regulator"
	case Wikipedia:
		return "Wikipedia"
	case IMF:
		return "IMF"
	default:
		return "Others"
	}
}

// SubsidiaryRef is a subsidiary mention inside a parent's document.
type SubsidiaryRef struct {
	Name       string
	Country    string
	OperatorID string // simulation linkage
}

// Document is one retrievable source document about a company.
type Document struct {
	Source      SourceType
	CompanyName string // how the document names the company
	OperatorID  string // simulation linkage (never read by the pipeline's logic)
	Country     string // country the document concerns

	// StatesOwnership reports whether the document discusses the
	// company's ownership structure at all.
	StatesOwnership bool
	// ReportedOwner/ReportedShare carry the ownership claim: the state's
	// country code and aggregated share. A zero owner with
	// StatesOwnership=true is an explicit "privately held" statement.
	ReportedOwner string
	ReportedShare float64

	Subsidiaries []SubsidiaryRef

	Quote string
	Lang  string
	URL   string
}

// Authoritative reports whether this source type counts as authoritative
// confirmation under §5.1 (Wikipedia does not; it only seeds candidates).
func (s SourceType) Authoritative() bool { return s != Wikipedia }

// CountryListing is a country-level enumeration of state-owned companies
// (Freedom House reports and Wikipedia country articles), the form the
// candidate stage consumes.
type CountryListing struct {
	Source      SourceType
	Country     string
	Companies   []string
	OperatorIDs []string
}

// Corpus is the frozen document universe.
type Corpus struct {
	docs []Document
	byOp map[string][]int
	// names[i] is docs[i].CompanyName prepared for matching; byCountry
	// lists each country's document indices in ascending order, so a
	// search scores only the documents of its country.
	names     []nameutil.Name
	byCountry map[string][]int

	fhListings   map[string]CountryListing
	wikiListings map[string]CountryListing
	fhCountries  map[string]bool
}

// FHCoverageTarget is how many countries Freedom House covers (paper: 65).
const FHCoverageTarget = 65

// Build generates the corpus for a world.
func Build(w *world.World) *Corpus {
	r := rng.New(w.Seed).Sub("docsrc")
	c := &Corpus{
		byOp:         make(map[string][]int),
		fhListings:   make(map[string]CountryListing),
		wikiListings: make(map[string]CountryListing),
		fhCountries:  fhCountries(w),
	}

	children := childOperators(w)

	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		if op.Kind == world.KindEnterprise {
			continue // the documentary universe ignores stubs
		}
		or := r.Sub("op/" + op.ID)
		c.emitCompanyDocs(w, op, children[op.ID], or)
	}
	c.buildListings(w, r.Sub("listings"))
	c.reindex()
	return c
}

// reindex rebuilds the by-operator, by-country and prepared-name indices
// from the docs slice (after Build, and again after degradation removes
// docs).
func (c *Corpus) reindex() {
	c.byOp = make(map[string][]int)
	c.byCountry = make(map[string][]int)
	c.names = make([]nameutil.Name, len(c.docs))
	for i := range c.docs {
		d := &c.docs[i]
		c.byOp[d.OperatorID] = append(c.byOp[d.OperatorID], i)
		c.byCountry[d.Country] = append(c.byCountry[d.Country], i)
		c.names[i] = nameutil.Prepare(d.CompanyName)
	}
}

// Degrade injects documentary coverage loss: individual documents go
// missing (dead links, delisted reports), and entries vanish from the
// Freedom House / Wikipedia country listings. There is no corruption
// channel — a document that cannot be retrieved simply never confirms
// anything, which is exactly how the paper experienced coverage holes.
func (c *Corpus) Degrade(in *faults.Injector) faults.Damage {
	kept := c.docs[:0]
	for _, d := range c.docs {
		if in.Next() == faults.Drop {
			continue
		}
		kept = append(kept, d)
	}
	c.docs = kept
	c.reindex()

	degradeListings := func(m map[string]CountryListing) {
		ccs := make([]string, 0, len(m))
		for cc := range m {
			ccs = append(ccs, cc)
		}
		sort.Strings(ccs)
		for _, cc := range ccs {
			l := m[cc]
			var names []string
			var ids []string
			for i, name := range l.Companies {
				if in.Next() == faults.Drop {
					continue
				}
				names = append(names, name)
				ids = append(ids, l.OperatorIDs[i])
			}
			if len(names) == 0 {
				delete(m, cc)
				continue
			}
			l.Companies, l.OperatorIDs = names, ids
			m[cc] = l
		}
	}
	degradeListings(c.fhListings)
	degradeListings(c.wikiListings)
	return in.Damage()
}

// fhCountries picks the 65 countries Freedom House covers: the large and
// the politically watched (transit-dominated, low-ICT) first.
func fhCountries(w *world.World) map[string]bool {
	type scored struct {
		cc    string
		score float64
	}
	var all []scored
	for _, cc := range w.Countries {
		prof := w.Profiles[cc]
		cn := ccodes.MustByCode(cc)
		s := float64(cn.Population) / 1e5
		if prof.TransitDominated {
			s += 50
		}
		s += 30 * (1 - prof.ICT)
		all = append(all, scored{cc, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].cc < all[j].cc
	})
	out := map[string]bool{}
	for i := 0; i < FHCoverageTarget && i < len(all); i++ {
		out[all[i].cc] = true
	}
	return out
}

// childOperators maps each operator to the operators whose controlling
// parent it is.
func childOperators(w *world.World) map[string][]*world.Operator {
	entToOp := make(map[ownership.EntityID]string)
	for _, id := range w.OperatorIDs {
		entToOp[w.Operators[id].Entity] = id
	}
	out := make(map[string][]*world.Operator)
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		parentEnt, ok := w.Graph.ControllingParent(op.Entity)
		if !ok {
			continue
		}
		if parentID, ok := entToOp[parentEnt]; ok && parentID != id {
			out[parentID] = append(out[parentID], op)
		}
	}
	return out
}

func (c *Corpus) add(d Document) { c.docs = append(c.docs, d) }

func (c *Corpus) emitCompanyDocs(w *world.World, op *world.Operator, subs []*world.Operator, r *rng.Stream) {
	ctrl := w.Graph.ControlOf(op.Entity)
	minCountry, minShare, hasMinority := w.Graph.MinorityState(op.Entity)
	prof := w.Profiles[op.Country]
	lang := docLang(op.Country)
	domain := strings.ToLower(strings.ReplaceAll(nameutil.Normalize(op.BrandName), " ", ""))
	if len(domain) > 14 {
		domain = domain[:14]
	}

	var subRefs []SubsidiaryRef
	for _, s := range subs {
		if r.Bool(0.85) {
			subRefs = append(subRefs, SubsidiaryRef{Name: s.BrandName, Country: s.Country, OperatorID: s.ID})
		}
	}

	ownedDoc := func(src SourceType, name, url string, pStates float64) {
		d := Document{
			Source: src, CompanyName: name, OperatorID: op.ID,
			Country: op.Country, Lang: lang, URL: url,
		}
		if r.Bool(pStates) {
			d.StatesOwnership = true
			switch {
			case ctrl.Controlled():
				d.ReportedOwner = ctrl.Controller
				d.ReportedShare = ctrl.Share
				d.Quote = ownershipQuote(lang, ctrl.Controller, ctrl.Share)
			case hasMinority:
				d.ReportedOwner = minCountry
				d.ReportedShare = minShare
				d.Quote = ownershipQuote(lang, minCountry, minShare)
			default:
				d.Quote = privateQuote(lang)
			}
		}
		if src == CompanyWebsite || src == AnnualReport {
			d.Subsidiaries = subRefs
		}
		c.add(d)
	}

	// Company website. Dominant carriers state their ownership
	// prominently (every national incumbent's site or press page does);
	// the silent ones are the small operators, which is exactly where
	// the paper's §9 expects the dataset's false negatives to sit.
	sizeBoost := op.AddrShare
	if sizeBoost > 0.5 {
		sizeBoost = 0.5
	}
	// Wholesale and submarine-cable carriers hold no access share but
	// are corporatized, investor-facing businesses (TTK, ARSAT,
	// Telebras): their ownership pages exist regardless.
	if op.Kind == world.KindTransit || op.Kind == world.KindSubmarineCable {
		if sizeBoost < 0.25 {
			sizeBoost = 0.25
		}
	}
	if r.Bool(op.WebPresence) {
		pStates := 0.35
		if ctrl.Controlled() {
			pStates = 0.72 + 0.5*sizeBoost
			if ctrl.Share >= 0.999 {
				pStates += 0.13 // wholly state-owned firms say so prominently
			}
			if pStates > 0.99 {
				pStates = 0.99
			}
		}
		ownedDoc(CompanyWebsite, op.BrandName, "https://www."+domain+"."+strings.ToLower(op.Country), pStates)
	}
	// Annual report (publicly traded or large corporatized firms);
	// corporate reporting depth tracks ecosystem maturity, so the
	// size bonus is ICT-scaled — a dominant incumbent in a low-ICT
	// country often publishes nothing, leaving Freedom House and the
	// credit agencies as its only confirmation sources (Table 1).
	if r.Bool(0.25 + 0.50*prof.ICT + 0.5*sizeBoost*prof.ICT) {
		ownedDoc(AnnualReport, op.LegalName, "https://www."+domain+"."+strings.ToLower(op.Country)+"/investors/annual-report.pdf", 0.95)
	}
	// Freedom House (per-company confirmation entry; listings built
	// later). Quiet transit gateways serve no consumers, so the
	// Internet-freedom reports never mention them.
	if c.fhCountries[op.Country] && ctrl.Controlled() && op.Kind.InScope() &&
		!op.QuietGateway && r.Bool(0.72) {
		c.add(Document{
			Source: FreedomHouse, CompanyName: op.BrandName, OperatorID: op.ID,
			Country: op.Country, StatesOwnership: true,
			ReportedOwner: ctrl.Controller, ReportedShare: ctrl.Share,
			Quote: fmt.Sprintf("%s, the state-owned provider, controls most of the country's backbone.", op.BrandName),
			Lang:  "English",
			URL:   "https://freedomhouse.org/country/" + strings.ToLower(op.Country) + "/freedom-net/2019",
		})
	}
	// CommsUpdate market stories.
	if op.Kind.InScope() && r.Bool(0.18+0.22*prof.ICT) {
		ownedDoc(CommsUpdate, op.BrandName, "https://www.commsupdate.com/articles/"+domain, 0.5)
	}
	// World Bank / IMF country reports cover the developing world.
	if prof.ICT < 0.58 && ctrl.Controlled() && op.Kind.InScope() {
		if r.Bool(0.42) {
			ownedDoc(WorldBank, op.LegalName, "https://openknowledge.worldbank.org/"+strings.ToLower(op.Country), 0.95)
		} else if r.Bool(0.15) {
			ownedDoc(IMF, op.LegalName, "https://www.imf.org/reports/"+strings.ToLower(op.Country), 0.95)
		}
	}
	// ITU commission documents.
	if ctrl.Controlled() && op.Kind.InScope() && r.Bool(0.07) {
		ownedDoc(ITU, op.LegalName, "https://www.itu.int/md/"+domain, 0.9)
	}
	// FCC/SEC filings: companies with US operations.
	if (op.Country == "US" || hasUSPresence(w, op)) && r.Bool(0.45) {
		ownedDoc(FCC, op.LegalName, "https://www.fcc.gov/ecfs/"+domain, 0.85)
	}
	// Local regulator disclosures.
	if op.Kind.InScope() && r.Bool(0.10*prof.ICT) {
		ownedDoc(Regulator, op.LegalName, "https://regulator."+strings.ToLower(op.Country)+"/licensees/"+domain, 0.8)
	}
	// General news.
	if op.Kind.InScope() && r.Bool(0.05) {
		ownedDoc(News, op.BrandName, "https://news.example/"+domain, 0.6)
	}
}

// hasUSPresence reports whether the operator's conglomerate also operates
// in the US (triggering SEC/FCC filings for the group).
func hasUSPresence(w *world.World, op *world.Operator) bool {
	if op.Conglomerate == op.BrandName {
		return false
	}
	for _, id := range w.OperatorIDs {
		o := w.Operators[id]
		if o.Conglomerate == op.Conglomerate && o.Country == "US" {
			return true
		}
	}
	return false
}

// buildListings assembles the Freedom House and Wikipedia country-level
// company lists used as candidate sources.
func (c *Corpus) buildListings(w *world.World, r *rng.Stream) {
	// One pass over the operators, in ID order within each country.
	byCountry := make(map[string][]*world.Operator)
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		byCountry[op.Country] = append(byCountry[op.Country], op)
	}
	for _, cc := range w.Countries {
		prof := w.Profiles[cc]
		cr := r.Sub("cc/" + cc)
		var fh, wiki CountryListing
		fh = CountryListing{Source: FreedomHouse, Country: cc}
		wiki = CountryListing{Source: Wikipedia, Country: cc}
		for _, op := range byCountry[cc] {
			if op.Kind == world.KindEnterprise || op.QuietGateway {
				continue
			}
			ctrl := w.Graph.ControlOf(op.Entity)
			state := ctrl.Controlled()
			// Public attention tracks market prominence: country reports
			// and encyclopedia articles name the incumbents, not every
			// small state-held ISP. Those small operators are exactly
			// the ones only the commercial database catches (the paper's
			// Orbis-only Venn region).
			prominence := op.AddrShare * 3
			if prominence > 1 {
				prominence = 1
			}
			// Freedom House: in-scope, truly state-owned, no FPs.
			if c.fhCountries[cc] && state && op.Kind.InScope() && cr.Bool(0.30+0.55*prominence) {
				fh.Companies = append(fh.Companies, op.BrandName)
				fh.OperatorIDs = append(fh.OperatorIDs, op.ID)
			}
			// Wikipedia: good recall in mature ecosystems, plus two
			// kinds of false positives the verification stage must
			// remove — stale post-privatization claims and out-of-scope
			// state organizations.
			switch {
			case state && op.Kind.InScope() && cr.Bool((0.20+0.3*prof.ICT)+0.45*prominence):
				wiki.Companies = append(wiki.Companies, op.BrandName)
				wiki.OperatorIDs = append(wiki.OperatorIDs, op.ID)
			case !state && op.FormerName != "" && strings.Contains(op.FormerName, "State") && cr.Bool(0.5):
				wiki.Companies = append(wiki.Companies, op.BrandName)
				wiki.OperatorIDs = append(wiki.OperatorIDs, op.ID)
			case state && !op.Kind.InScope() && cr.Bool(0.15):
				wiki.Companies = append(wiki.Companies, op.BrandName)
				wiki.OperatorIDs = append(wiki.OperatorIDs, op.ID)
			}
		}
		if len(fh.Companies) > 0 {
			c.fhListings[cc] = fh
		}
		if len(wiki.Companies) > 0 {
			c.wikiListings[cc] = wiki
		}
	}
}

func docLang(cc string) string {
	c := ccodes.MustByCode(cc)
	switch {
	case c.RIR == ccodes.LACNIC:
		return "Spanish"
	case c.Subregion == "Western Africa" || c.Subregion == "Middle Africa":
		return "French"
	default:
		return "English"
	}
}

func ownershipQuote(lang, owner string, share float64) string {
	cn := ccodes.MustByCode(owner).Name
	pct := share * 100
	switch lang {
	case "Spanish":
		return fmt.Sprintf("El Estado de %s posee el %.1f%% del capital accionario.", cn, pct)
	case "French":
		return fmt.Sprintf("L'Etat de %s detient %.1f%% du capital.", cn, pct)
	default:
		return fmt.Sprintf("Major shareholdings: Government of %s (%.1f%%).", cn, pct)
	}
}

func privateQuote(lang string) string {
	switch lang {
	case "Spanish":
		return "La empresa es de capital privado; ningun estado posee participacion."
	case "French":
		return "La societe est detenue par des actionnaires prives."
	default:
		return "The company is privately held; no government holds equity."
	}
}

// Search retrieves documents whose company name matches the query with
// similarity >= 0.72 and whose country matches (empty country = any),
// most similar first. This is how the mechanized analyst "googles" a
// candidate company.
func (c *Corpus) Search(name, country string) []Document {
	q := nameutil.Prepare(name)
	type hit struct {
		idx   int
		score float64
	}
	var hits []hit
	score := func(i int) {
		if s := q.Similarity(c.names[i]); s >= 0.72 {
			hits = append(hits, hit{i, s})
		}
	}
	if country == "" {
		for i := range c.names {
			score(i)
		}
	} else {
		for _, i := range c.byCountry[country] {
			score(i)
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return hits[i].idx < hits[j].idx
	})
	out := make([]Document, len(hits))
	for i, h := range hits {
		out[i] = c.docs[h.idx]
	}
	return out
}

// DocsFor returns all documents linked to an operator (used by scoring
// and tests; the pipeline retrieves through Search).
func (c *Corpus) DocsFor(opID string) []Document {
	var out []Document
	for _, i := range c.byOp[opID] {
		out = append(out, c.docs[i])
	}
	return out
}

// FreedomHouseListings returns FH's per-country state-owned company
// lists, sorted by country.
func (c *Corpus) FreedomHouseListings() []CountryListing { return sortListings(c.fhListings) }

// WikipediaListings returns Wikipedia's per-country lists, sorted.
func (c *Corpus) WikipediaListings() []CountryListing { return sortListings(c.wikiListings) }

func sortListings(m map[string]CountryListing) []CountryListing {
	out := make([]CountryListing, 0, len(m))
	for _, l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// FHCovered reports whether Freedom House covers the country.
func (c *Corpus) FHCovered(cc string) bool { return c.fhCountries[cc] }

// NumDocs reports the corpus size.
func (c *Corpus) NumDocs() int { return len(c.docs) }
