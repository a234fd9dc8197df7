// Package candidates implements stage 1 of the paper's pipeline (§4):
// assembling the list of candidate ASes and companies to be manually
// verified.
//
// Technical sources propose ASes: country-level AS geolocation (ASes
// originating >= 5% of a country's geolocated addresses), the APNIC
// eyeball estimates (>= 5% of a country's eyeballs) and the CTI metric
// (the two most influential transit ASes per covered country). Candidate
// ASes are then mapped to company names via WHOIS, PeeringDB and — when
// both fail to yield a usable name — a simulated web search on the
// registered contact domain (§4.2).
//
// Non-technical sources propose company names directly: the Orbis
// state-owned-telecom query and the Wikipedia + Freedom House country
// listings (§4.3).
package candidates

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"stateowned/internal/as2org"
	"stateowned/internal/ccodes"
	"stateowned/internal/docsrc"
	"stateowned/internal/eyeballs"
	"stateowned/internal/geo"
	"stateowned/internal/nameutil"
	"stateowned/internal/orbis"
	"stateowned/internal/peeringdb"
	"stateowned/internal/sched"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// Source identifies one of the five input sources, abbreviated as in the
// paper's dataset (§6): G, E, C, O, W.
type Source uint8

// The five input sources.
const (
	SrcGeo      Source = iota // G: country-level AS geolocation
	SrcEyeballs               // E: APNIC eyeballs dataset
	SrcCTI                    // C: country transit influence
	SrcOrbis                  // O: Orbis
	SrcWiki                   // W: Wikipedia + Freedom House
)

// Letter returns the paper's one-letter abbreviation.
func (s Source) Letter() string { return [...]string{"G", "E", "C", "O", "W"}[s] }

// String names the source.
func (s Source) String() string {
	return [...]string{
		"Country-level AS geolocation", "APNIC eyeballs dataset",
		"Country Transit Influence", "Orbis", "Wikipedia + Freedom House",
	}[s]
}

// AllSources lists the sources in canonical order.
func AllSources() []Source { return []Source{SrcGeo, SrcEyeballs, SrcCTI, SrcOrbis, SrcWiki} }

// SourceSet is a bitmask of input sources.
type SourceSet uint8

// Add returns the set with s included.
func (ss SourceSet) Add(s Source) SourceSet { return ss | 1<<s }

// Has reports membership.
func (ss SourceSet) Has(s Source) bool { return ss&(1<<s) != 0 }

// Union merges two sets.
func (ss SourceSet) Union(o SourceSet) SourceSet { return ss | o }

// Letters renders the set in the paper's "[G, E, W, O]" order: G E C O W.
func (ss SourceSet) Letters() []string {
	var out []string
	for _, s := range AllSources() {
		if ss.Has(s) {
			out = append(out, s.Letter())
		}
	}
	return out
}

// MarketShareThreshold is the paper's 5% market-relevance cut for the
// geolocation and eyeball sources.
const MarketShareThreshold = 0.05

// CTITopK is how many top-CTI ASes per country join the candidate list.
const CTITopK = 2

// MappingThreshold is the minimum name similarity for resolving a company
// name against WHOIS/PeeringDB records.
const MappingThreshold = 0.80

// Identity matching between company names is stricter than retrieval: two
// records are the same company only when, after stripping the operating
// country's name tokens (inside one country, "Nigeria Mobile" and
// "Nigeria Telecom" share no identity signal beyond the country word),
// either the normalized strings are near-identical or both the combined
// similarity and the weighted token overlap are high.
const (
	identityJWBar    = 0.92
	identitySimBar   = 0.85
	identityTokenBar = 0.65
)

// Identity is a company name prepared for the same-company predicate
// inside one country: the full name, prepared, and — when stripping the
// country's name words leaves any — the stripped name, prepared. The
// kept tokens are finished again (nameutil.Retokenize) rather than used
// as they are, because stripping can expose a new trailing legal suffix
// ("Mobile Co Nigeria" strips to "mobile co", which normalizes to
// "mobile") or bring single letters together ("a Nigeria b" strips to
// "a b", which normalizes to "ab").
type Identity struct {
	Name     nameutil.Name // the full name
	stripped nameutil.Name
	strips   bool // stripping left at least one token
}

// NewIdentity prepares a company name operating in country cc. It
// tokenizes the name once; the country's name words come from
// countryWords. A country code outside the table strips nothing, so
// the stripped form is the full name.
func NewIdentity(name, cc string) Identity {
	toks := nameutil.Tokens(name)
	drop, known := countryWords()[cc]
	if !known {
		id := Identity{Name: nameutil.PrepareTokens(toks)}
		if name != "" {
			id.stripped, id.strips = id.Name, true
		}
		return id
	}
	var kept []string
	for _, t := range toks {
		if !slices.Contains(drop, t) {
			kept = append(kept, t)
		}
	}
	id := Identity{Name: nameutil.PrepareTokens(toks)}
	if len(kept) > 0 {
		id.stripped, id.strips = nameutil.PrepareTokens(nameutil.Retokenize(kept)), true
	}
	return id
}

// countryWords maps every country code to its name's tokens ("Nigeria
// Mobile" strips to "Mobile" for NG). It is built once, on first use,
// and read-only after: stage 1 and stage 2 call NewIdentity from pool
// goroutines, so the memo is a sync.OnceValue, not a lazily filled map.
var countryWords = sync.OnceValue(func() map[string][]string {
	out := make(map[string][]string, ccodes.Count())
	for _, c := range ccodes.All() {
		out[c.Code] = nameutil.Tokens(c.Name)
	}
	return out
})

// Same reports whether two names prepared for the same country plausibly
// denote the same company. Both stage-1 candidate merging and stage-2
// document matching use this predicate. The stripped forms are compared
// only when both names keep a word after stripping.
func (a Identity) Same(b Identity) bool {
	x, y := a.Name, b.Name
	if a.strips && b.strips {
		x, y = a.stripped, b.stripped
	}
	if nameutil.JaroWinkler(x.Norm, y.Norm) >= identityJWBar {
		return true
	}
	return x.Similarity(y) >= identitySimBar &&
		x.TokenSetSimilarity(y) >= identityTokenBar
}

// Company is one candidate company to be verified in stage 2.
type Company struct {
	// Name is the best name stage 1 could establish; NameSource records
	// where it came from ("whois", "peeringdb", "web-search", "orbis",
	// "wiki+fh").
	Name       string
	NameSource string
	Country    string
	Sources    SourceSet
	// ASNs are the candidate ASes mapped to this company so far (empty
	// for company-name-only candidates).
	ASNs []world.ASN
	// OrgIDs are the AS2Org organizations behind those ASNs.
	OrgIDs []string
}

// Inputs bundles the data sources stage 1 consumes. A nil Geo, Eyeballs
// or Orbis drops that source (ablations); DisableWikiFH drops the
// Wikipedia + Freedom House listings while keeping the corpus available
// for name mapping.
type Inputs struct {
	Geo       *geo.DB
	Eyeballs  *eyeballs.Dataset
	CTITop    map[string][]world.ASN // country -> top-K transit ASes
	WHOIS     *whois.Registry
	PeeringDB *peeringdb.DB
	AS2Org    *as2org.Mapping
	Orbis     *orbis.DB
	Docs      *docsrc.Corpus
	Countries []string // countries in scope

	DisableWikiFH bool
	// Threshold overrides MarketShareThreshold when > 0 (ablation sweep).
	Threshold float64
	// Workers bounds the pool that maps organizations to companies and
	// merges each country's candidates (sched.Workers: 0 selects
	// GOMAXPROCS, 1 runs serially). The result is the same for every
	// value.
	Workers int
}

func (in Inputs) threshold() float64 {
	if in.Threshold > 0 {
		return in.Threshold
	}
	return MarketShareThreshold
}

// Stats captures the stage-1 aggregates the paper reports in §4.
type Stats struct {
	GeoASes           int // paper: 793
	EyeballASes       int // paper: 716
	TechIntersection  int // paper: 466
	TechUnionGE       int // paper: 1043
	CTIASes           int // paper: 93
	AllTechnicalASes  int // paper: 1091
	DistinctOrgs      int // paper: 1023
	OrbisCompanies    int // paper: 994
	WikiFHCompanies   int
	CandidateCompanys int
}

// Result is stage 1's output.
type Result struct {
	Companies []Company
	// PerSourceASes records which ASNs each technical source proposed.
	PerSourceASes map[Source][]world.ASN
	Stats         Stats
}

// Run executes stage 1. Mapping an organization to a company and
// merging one country's candidates each read only the frozen inputs and
// write only their own slot, so both run on the in.Workers pool and are
// assembled in sorted organization and country order.
func Run(in Inputs) *Result {
	res := &Result{PerSourceASes: map[Source][]world.ASN{}}

	geoASes := geoCandidates(in)
	eyeASes := eyeballCandidates(in)
	ctiASes := ctiCandidates(in)
	res.PerSourceASes[SrcGeo] = setToSorted(geoASes)
	res.PerSourceASes[SrcEyeballs] = setToSorted(eyeASes)
	res.PerSourceASes[SrcCTI] = setToSorted(ctiASes)

	res.Stats.GeoASes = len(geoASes)
	res.Stats.EyeballASes = len(eyeASes)
	res.Stats.CTIASes = len(ctiASes)
	inter, union := 0, map[world.ASN]bool{}
	for a := range geoASes {
		union[a] = true
		if eyeASes[a] {
			inter++
		}
	}
	for a := range eyeASes {
		union[a] = true
	}
	res.Stats.TechIntersection = inter
	res.Stats.TechUnionGE = len(union)
	for a := range ctiASes {
		union[a] = true
	}
	res.Stats.AllTechnicalASes = len(union)

	// Map technical candidate ASes to companies, grouped by AS2Org org.
	all := setToSorted(map[world.ASN]bool(union))
	res.Stats.DistinctOrgs = in.AS2Org.DistinctOrgs(all)

	tagOf := func(a world.ASN) SourceSet {
		var ss SourceSet
		if geoASes[a] {
			ss = ss.Add(SrcGeo)
		}
		if eyeASes[a] {
			ss = ss.Add(SrcEyeballs)
		}
		if ctiASes[a] {
			ss = ss.Add(SrcCTI)
		}
		return ss
	}

	type orgAgg struct {
		asns []world.ASN
		ss   SourceSet
	}
	orgGroups := map[string]*orgAgg{}
	for _, a := range all {
		// An AS with no AS2Org organization (its WHOIS record is missing
		// or was quarantined) stands alone: pooling org-less ASes into one
		// shared group would weld unrelated operators into a single
		// pseudo-company.
		orgID := fmt.Sprintf("asn-only/%d", a)
		if org, ok := in.AS2Org.OrgOf(a); ok {
			orgID = org.ID
		}
		g := orgGroups[orgID]
		if g == nil {
			g = &orgAgg{}
			orgGroups[orgID] = g
		}
		g.asns = append(g.asns, a)
		g.ss = g.ss.Union(tagOf(a))
	}
	orgIDs := make([]string, 0, len(orgGroups))
	for id := range orgGroups {
		orgIDs = append(orgIDs, id)
	}
	sort.Strings(orgIDs)

	mapped := make([]Company, len(orgIDs))
	sched.ParallelFor(in.Workers, len(orgIDs), func(_, i int) {
		g := orgGroups[orgIDs[i]]
		slices.Sort(g.asns)
		name, nameSrc, country := mapASToCompany(in, g.asns[0])
		mapped[i] = Company{
			Name: name, NameSource: nameSrc, Country: country,
			Sources: g.ss, ASNs: g.asns, OrgIDs: []string{orgIDs[i]},
		}
	})
	var companies []Company
	for _, c := range mapped {
		if c.Name == "" {
			// No registry, PeeringDB or web-search name at all: stage 2
			// has nothing to confirm against, and an unnamed candidate
			// would match documents promiscuously. The AS stays counted in
			// the technical stats but produces no company candidate.
			continue
		}
		companies = append(companies, c)
	}

	// Non-technical candidates.
	if in.Orbis != nil {
		orbisRows := in.Orbis.StateOwnedTelecoms()
		res.Stats.OrbisCompanies = len(orbisRows)
		for _, e := range orbisRows {
			companies = append(companies, Company{
				Name: e.CompanyName, NameSource: "orbis", Country: e.Country,
				Sources: SourceSet(0).Add(SrcOrbis),
			})
		}
	}
	if !in.DisableWikiFH {
		wikiFH := 0
		for _, l := range append(in.Docs.FreedomHouseListings(), in.Docs.WikipediaListings()...) {
			for _, name := range l.Companies {
				wikiFH++
				companies = append(companies, Company{
					Name: name, NameSource: "wiki+fh", Country: l.Country,
					Sources: SourceSet(0).Add(SrcWiki),
				})
			}
		}
		res.Stats.WikiFHCompanies = wikiFH
	}

	res.Companies = mergeCandidates(companies, in.Workers)
	res.Stats.CandidateCompanys = len(res.Companies)
	return res
}

func geoCandidates(in Inputs) map[world.ASN]bool {
	out := map[world.ASN]bool{}
	if in.Geo == nil {
		return out
	}
	for _, cc := range in.Countries {
		total := in.Geo.TotalIn(cc)
		if total == 0 {
			continue
		}
		for _, tr := range in.Geo.CountryOrigins(cc) {
			if float64(tr.Addresses)/float64(total) >= in.threshold() {
				out[tr.Origin] = true
			}
		}
	}
	return out
}

func eyeballCandidates(in Inputs) map[world.ASN]bool {
	out := map[world.ASN]bool{}
	if in.Eyeballs == nil {
		return out
	}
	for _, cc := range in.Countries {
		for _, e := range in.Eyeballs.Country(cc) {
			if e.Share >= in.threshold() {
				out[e.AS] = true
			}
		}
	}
	return out
}

func ctiCandidates(in Inputs) map[world.ASN]bool {
	out := map[world.ASN]bool{}
	for _, asns := range in.CTITop {
		for i, a := range asns {
			if i >= CTITopK {
				break
			}
			out[a] = true
		}
	}
	return out
}

func setToSorted(m map[world.ASN]bool) []world.ASN {
	out := make([]world.ASN, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// mapASToCompany resolves an AS to its best-known company name (§4.2):
// WHOIS OrgName first; PeeringDB's fresher brand name when present; and
// when the WHOIS name looks like a dead end, a web search seeded with the
// record's contact domain.
func mapASToCompany(in Inputs, a world.ASN) (name, source, country string) {
	rec, ok := in.WHOIS.Lookup(a)
	if ok {
		name, source, country = rec.OrgName, "whois", rec.Country
	}
	if e, ok := in.PeeringDB.Lookup(a); ok {
		// Self-reported brand names are fresher than WHOIS legal names.
		name, source, country = e.Name, "peeringdb", e.Country
		return
	}
	if ok {
		// Web search fallback: the paper googles the contact domains
		// when the WHOIS name finds no website. Simulated: search the
		// documentary corpus for the WHOIS name; if it misses but the
		// domain's brand stem hits, adopt the document's company name.
		if len(in.Docs.Search(name, country)) == 0 {
			stem := strings.SplitN(rec.Email, "@", 2)
			if len(stem) == 2 {
				brandStem := strings.SplitN(stem[1], ".", 2)[0]
				if docs := in.Docs.Search(brandStem, country); len(docs) > 0 {
					return docs[0].CompanyName, "web-search", country
				}
			}
		}
	}
	return
}

// mergeCandidates deduplicates candidates that refer to the same company
// (same country, name similarity above threshold), unioning their source
// tags and ASNs. Countries merge independently on the workers pool.
func mergeCandidates(cands []Company, workers int) []Company {
	byCountry := map[string][]Company{}
	for _, c := range cands {
		byCountry[c.Country] = append(byCountry[c.Country], c)
	}
	countries := make([]string, 0, len(byCountry))
	for cc := range byCountry {
		countries = append(countries, cc)
	}
	sort.Strings(countries)

	perCountry := make([][]Company, len(countries))
	sched.ParallelFor(workers, len(countries), func(_, ci int) {
		cc := countries[ci]
		group := byCountry[cc]
		// Prefer AS-backed candidates as merge anchors.
		sort.SliceStable(group, func(i, j int) bool {
			if (len(group[i].ASNs) > 0) != (len(group[j].ASNs) > 0) {
				return len(group[i].ASNs) > 0
			}
			return group[i].Name < group[j].Name
		})
		var merged []Company
		var anchors []Identity // aligned with merged
		for _, c := range group {
			id := NewIdentity(c.Name, cc)
			placed := false
			for i := range merged {
				if anchors[i].Same(id) {
					merged[i].Sources = merged[i].Sources.Union(c.Sources)
					merged[i].ASNs = unionASNs(merged[i].ASNs, c.ASNs)
					merged[i].OrgIDs = unionStrings(merged[i].OrgIDs, c.OrgIDs)
					placed = true
					break
				}
			}
			if !placed {
				merged = append(merged, c)
				anchors = append(anchors, id)
			}
		}
		perCountry[ci] = merged
	})
	var out []Company
	for _, merged := range perCountry {
		out = append(out, merged...)
	}
	return out
}

func unionASNs(a, b []world.ASN) []world.ASN {
	seen := map[world.ASN]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			a = append(a, x)
			seen[x] = true
		}
	}
	slices.Sort(a)
	return a
}

func unionStrings(a, b []string) []string {
	seen := map[string]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			a = append(a, x)
			seen[x] = true
		}
	}
	sort.Strings(a)
	return a
}
