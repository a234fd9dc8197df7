package world

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"stateowned/internal/ccodes"
	"stateowned/internal/netaddr"
	"stateowned/internal/ownership"
	"stateowned/internal/rng"
)

// Config parameterizes world generation.
type Config struct {
	// Seed drives all randomness; equal seeds yield identical worlds.
	Seed uint64
	// Scale multiplies stub/enterprise AS counts. 1.0 yields a world of
	// roughly 8-10k ASes; tests use small scales.
	Scale float64
	// Countries restricts generation to a subset of ISO codes (nil = all).
	// Anchors whose home or host country is excluded are skipped.
	Countries []string
}

// opPlan is the pre-entity plan for one operator.
type opPlan struct {
	id        string
	anchor    *AnchorOperator
	sub       *AnchorSubsidiary
	parentID  string // operator ID of the parent (for subsidiaries)
	kind      OperatorKind
	conglom   string
	brand     string
	country   string
	addrShare float64
	// stateShare is the home government's equity (synthetic operators);
	// 0 means private. minorityShare < 0.5 plants a minority case.
	stateShare    float64
	minorityShare float64
	fundsSplit    bool
	holdco        string // holdco name for indirect chains ("" = direct)
	transitOnly   bool
	ctiOnly       bool
	founded       int
	formerLegal   string
	parentShare   float64 // equity the parent holds (subsidiaries)
}

// specialWiring lists equity positions between anchor companies that the
// generic gov/float wiring cannot express (joint ventures, consortiums,
// chains through sister companies).
var specialWiring = []struct {
	holderKey string // anchor key, or "gov:CC"
	targetKey string
	share     float64
}{
	{"angolatelecom", "angolacables", 0.62},
	{"telkomindonesia", "telkomsel", 0.65},
	{"singtel", "telkomsel", 0.35},
	{"singtel", "bharti", 0.351},
	{"etisalat", "ptcl", 0.26},
	{"mauritiustelecom", "wiocc", 0.15},
	{"gov:DJ", "wiocc", 0.14},
}

// skipDefaultGov marks anchor keys whose state share is entirely carried
// by specialWiring chains rather than a direct government holding.
var skipDefaultGov = map[string]bool{
	"angolacables": true,
	"wiocc":        true,
}

// holdcoNames interposes a named state holding company for these anchors,
// exercising indirect-chain resolution.
var holdcoNames = map[string]string{
	"ttk":     "Russian Railways",
	"viettel": "Ministry of National Defence Holding",
}

// Generate builds a world from the configuration.
func Generate(cfg Config) *World {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	root := rng.New(cfg.Seed)
	w := &World{
		Seed:      cfg.Seed,
		Graph:     ownership.NewGraph(),
		Operators: make(map[string]*Operator),
		ASes:      make(map[ASN]*AS),
		Profiles:  make(map[string]*CountryProfile),
	}

	countries := selectCountries(cfg)
	w.Countries = countries
	inScopeCountry := make(map[string]bool, len(countries))
	for _, cc := range countries {
		inScopeCountry[cc] = true
	}

	// Profiles.
	for _, cc := range countries {
		c := ccodes.MustByCode(cc)
		w.Profiles[cc] = buildProfile(root.Sub("profile/"+cc), c)
	}

	g := newGen(w, root, cfg, inScopeCountry)
	g.plan()
	// About two entities per plan: its company and its public float. The
	// governments, state funds and holding companies roughly make up for
	// the plans that float no equity.
	w.Graph.Grow(2 * len(g.plans))
	g.createOperators()
	g.wireSpecialHoldings()
	g.assignASNsAndPrefixes()
	g.assignSubscribers()

	sort.Strings(w.OperatorIDs)
	slices.Sort(w.ASNList)
	return w
}

func selectCountries(cfg Config) []string {
	if len(cfg.Countries) == 0 {
		all := ccodes.All()
		out := make([]string, len(all))
		for i, c := range all {
			out[i] = c.Code
		}
		return out
	}
	out := append([]string(nil), cfg.Countries...)
	sort.Strings(out)
	return out
}

type gen struct {
	w         *World
	root      *rng.Stream
	cfg       Config
	inScope   map[string]bool
	plans     []*opPlan
	plansByID map[string]*opPlan
	// byCountry indexes plans by country, each country's in append
	// order, so planning a country never scans the others' plans.
	byCountry map[string][]*opPlan
	anchorOp  map[string]string // anchor key -> operator ID
	nextASN   ASN
	orgSeq    int
	reserved  map[ASN]bool
	alloc     *netaddr.Allocator
	fundsFor  map[string][]ownership.EntityID
}

func newGen(w *World, root *rng.Stream, cfg Config, inScope map[string]bool) *gen {
	return &gen{
		w:         w,
		root:      root,
		cfg:       cfg,
		inScope:   inScope,
		plansByID: make(map[string]*opPlan),
		byCountry: make(map[string][]*opPlan),
		anchorOp:  make(map[string]string),
		nextASN:   50001,
		reserved:  anchorASNs(),
		alloc:     netaddr.NewAllocator(netaddr.MustParse("0.0.0.0/1")),
		fundsFor:  make(map[string][]ownership.EntityID),
	}
}

func (g *gen) addPlan(p *opPlan) {
	g.plans = append(g.plans, p)
	g.plansByID[p.id] = p
	g.byCountry[p.country] = append(g.byCountry[p.country], p)
}

// plan builds the per-country operator plans: anchors first (homes, then
// subsidiaries), then synthetic fill.
func (g *gen) plan() {
	// Home anchors.
	for i := range Anchors {
		a := &Anchors[i]
		if !g.inScope[a.Country] {
			continue
		}
		share := a.MarketShare
		p := &opPlan{
			id: "anchor-" + a.Key, anchor: a, kind: a.Kind,
			conglom: a.Conglomerate, brand: a.BrandName, country: a.Country,
			addrShare: share, transitOnly: a.TransitOnly, ctiOnly: a.CTIOnly,
			founded: a.Founded, fundsSplit: a.FundsSplit,
			holdco: holdcoNames[a.Key],
		}
		if a.StateShare >= ownership.MajorityThreshold {
			p.stateShare = a.StateShare
		} else if a.StateShare > 0 {
			p.minorityShare = a.StateShare
		}
		g.addPlan(p)
		g.anchorOp[a.Key] = p.id
		// Subsidiaries.
		for j := range a.Subsidiaries {
			s := &a.Subsidiaries[j]
			if !g.inScope[s.Host] {
				continue
			}
			kind := KindMobile
			if s.TransitOnly {
				kind = KindTransit
			}
			share := s.Share
			if share == 0 {
				share = 0.75
			}
			g.addPlan(&opPlan{
				id: fmt.Sprintf("anchor-%s-%s", a.Key, s.Host), sub: s,
				parentID: p.id, kind: kind, conglom: a.Conglomerate,
				brand: s.Brand, country: s.Host, addrShare: s.MarketShare,
				transitOnly: s.TransitOnly, founded: maxInt(a.Founded, 2004),
				formerLegal: s.FormerLegal, parentShare: share,
			})
		}
	}

	// Synthetic fill per country.
	for _, cc := range g.w.Countries {
		g.planCountry(cc)
	}
}

func (g *gen) planCountry(cc string) {
	c := ccodes.MustByCode(cc)
	prof := g.w.Profiles[cc]
	r := g.root.Sub("country/" + cc)

	var planned float64
	hasIncumbent := false
	for _, p := range g.byCountry[cc] {
		if p.kind.ProvidesAccess() && !p.transitOnly {
			planned += p.addrShare
		}
		if p.kind == KindIncumbent && p.anchor != nil {
			hasIncumbent = true
		}
	}
	remaining := 1.0 - planned
	if remaining < 0 {
		remaining = 0
	}

	countryStateOwned := hasStateAnchor(g.byCountry[cc], cc)
	idx := 0
	newID := func(kind string) string {
		id := fmt.Sprintf("%s-%s-%d", cc, kind, idx)
		idx++
		return id
	}

	// Brand names are unique within a country (trademark reality); a
	// collision would otherwise let one company's documents confirm a
	// different company's ownership.
	usedNames := map[string]bool{}
	for _, p := range g.byCountry[cc] {
		usedNames[p.brand] = true
	}
	uniqueName := func(gen func() string) string {
		for i := 0; i < 8; i++ {
			n := gen()
			if !usedNames[n] {
				usedNames[n] = true
				return n
			}
		}
		n := gen() + " " + string(rune('A'+idx%26)) // last resort disambiguator
		usedNames[n] = true
		return n
	}

	// Incumbent.
	if !hasIncumbent && remaining > 0.05 {
		prior := stateOwnershipPrior[c.Region]
		// The ARIN service region is the paper's outlier (Table 4: 7% of
		// member economies): the US and Canada have no state operators
		// and the English-speaking Caribbean privatized its telcos.
		if c.RIR == ccodes.ARIN {
			prior *= 0.2
		}
		// Latin America largely privatized *access* in the 1990s; the
		// state presence the paper finds there is mostly transit
		// (ARSAT, Telebras, Internexa), handled below. Incumbent
		// state ownership is correspondingly rarer.
		if c.RIR == ccodes.LACNIC {
			prior *= 0.6
		}
		stateOwned := r.Bool(prior)
		share := remaining * incumbentShareDraw(r)
		p := &opPlan{
			id: newID("incumbent"), kind: KindIncumbent, country: cc,
			brand: uniqueName(func() string { return incumbentName(r, c) }), addrShare: share,
			founded: r.IntBetween(1993, 2002),
		}
		p.conglom = p.brand
		if stateOwned {
			p.stateShare = stateShareDraw(r)
			p.fundsSplit = r.Bool(0.15)
			if !p.fundsSplit && r.Bool(0.25) {
				p.holdco = shortCountry(c) + " State Holding"
			}
			countryStateOwned = true
		} else {
			if r.Bool(0.50) {
				p.minorityShare = r.FloatBetween(0.05, 0.45)
			}
			// Privatized decoy: a misleading formerly-state name.
			if r.Bool(0.06) {
				p.formerLegal = shortCountry(c) + " State Telecom"
			}
		}
		remaining -= share
		g.addPlan(p)
	}

	// Mobile operators.
	nMobile := 1
	if c.Population > 5000 {
		nMobile += r.Intn(2)
	}
	if c.Population > 50000 {
		nMobile++
	}
	for i := 0; i < nMobile && remaining > 0.04; i++ {
		share := remaining * r.FloatBetween(0.25, 0.6)
		p := &opPlan{
			id: newID("mobile"), kind: KindMobile, country: cc,
			brand: uniqueName(func() string { return mobileName(r, c) }), addrShare: share,
			founded: r.IntBetween(1998, 2012),
		}
		p.conglom = p.brand
		// States that privatized their incumbent rarely own mobiles, so
		// extra state operators appear only in already-state countries.
		pState := 0.0
		if countryStateOwned {
			pState = 0.22
		}
		if r.Bool(pState) {
			p.stateShare = stateShareDraw(r)
		} else if r.Bool(0.15) {
			p.minorityShare = r.FloatBetween(0.05, 0.45)
		}
		remaining -= share
		g.addPlan(p)
	}

	// Regional ISPs.
	nRegional := int(prof.ICT * 4 * g.cfg.Scale)
	if nRegional < 1 {
		nRegional = 1
	}
	for i := 0; i < nRegional && remaining > 0.02; i++ {
		share := remaining * r.FloatBetween(0.15, 0.45)
		p := &opPlan{
			id: newID("regional"), kind: KindRegionalISP, country: cc,
			brand: uniqueName(func() string { return regionalISPName(r, c) }), addrShare: share,
			founded: r.IntBetween(2003, 2016),
		}
		p.conglom = p.brand
		if countryStateOwned && r.Bool(0.03) {
			p.stateShare = stateShareDraw(r)
		}
		remaining -= share
		g.addPlan(p)
	}

	// Wholesale/transit carrier.
	if c.Population > 5000 && r.Bool(0.5) && !hasTransitPlan(g.byCountry[cc], cc) {
		p := &opPlan{
			id: newID("transit"), kind: KindTransit, country: cc,
			brand: uniqueName(func() string { return transitName(r, c) }), transitOnly: true,
			founded: r.IntBetween(2000, 2014),
		}
		p.conglom = p.brand
		pState := 0.02
		if countryStateOwned {
			pState = 0.45
		}
		// The LACNIC pattern: states that left the access market still
		// build national transit backbones (§4.1's ARSAT and Telebras
		// examples).
		if c.RIR == ccodes.LACNIC && !countryStateOwned {
			pState = 0.35
		}
		if r.Bool(pState) {
			p.stateShare = stateShareDraw(r)
		}
		g.addPlan(p)
	}

	// Excluded organizations (§5.3 / Appendix E).
	if c.Population > 2000 || r.Bool(0.7) {
		g.addPlan(&opPlan{
			id: newID("academic"), kind: KindAcademic, country: cc,
			brand: excludedName(r, c, KindAcademic), stateShare: 1.0,
			founded: r.IntBetween(1992, 2005), conglom: "",
		})
	}
	if r.Bool(0.75) {
		g.addPlan(&opPlan{
			id: newID("govnet"), kind: KindGovernmentNet, country: cc,
			brand: excludedName(r, c, KindGovernmentNet), stateShare: 1.0,
			founded: r.IntBetween(1995, 2010),
		})
	}
	if r.Bool(0.5) {
		g.addPlan(&opPlan{
			id: newID("nic"), kind: KindInternetAdmin, country: cc,
			brand:   excludedName(r, c, KindInternetAdmin),
			founded: r.IntBetween(1995, 2008),
		})
	}
	if r.Bool(0.15 + 0.25*prof.ICT) {
		g.addPlan(&opPlan{
			id: newID("municipal"), kind: KindMunicipal, country: cc,
			brand: excludedName(r, c, KindMunicipal), stateShare: 1.0,
			founded: r.IntBetween(2005, 2017),
		})
	}

	// Enterprise / content stubs.
	nStub := int(g.cfg.Scale * (2 + pow(float64(c.Population), 0.45)*prof.ICT*1.1))
	if nStub > 600 {
		nStub = 600
	}
	for i := 0; i < nStub; i++ {
		g.addPlan(&opPlan{
			id: newID("stub"), kind: KindEnterprise, country: cc,
			brand:   uniqueName(func() string { return excludedName(r, c, KindEnterprise) }),
			founded: r.IntBetween(2004, 2019),
		})
	}
}

func hasStateAnchor(plans []*opPlan, cc string) bool {
	for _, p := range plans {
		if p.country == cc && p.anchor != nil && p.stateShare >= ownership.MajorityThreshold {
			return true
		}
	}
	return false
}

func hasTransitPlan(plans []*opPlan, cc string) bool {
	for _, p := range plans {
		if p.country == cc && (p.kind == KindTransit || p.kind == KindSubmarineCable) {
			return true
		}
	}
	return false
}

// incumbentShareDraw mixes market-share regimes so the Figure 4 deciles
// populate across the [0,1] range.
func incumbentShareDraw(r *rng.Stream) float64 {
	switch {
	case r.Bool(0.40):
		return r.FloatBetween(0.15, 0.40)
	case r.Bool(0.58):
		return r.FloatBetween(0.40, 0.65)
	default:
		return r.FloatBetween(0.65, 0.95)
	}
}

// stateShareDraw draws a majority state equity share.
func stateShareDraw(r *rng.Stream) float64 {
	switch {
	case r.Bool(0.25):
		return 1.0
	case r.Bool(0.60):
		return r.FloatBetween(0.50, 0.75)
	default:
		return r.FloatBetween(0.75, 1.0)
	}
}

// createOperators materializes plans into entities and Operator records.
// Order: home anchors, then subsidiaries (parents exist), then the rest.
func (g *gen) createOperators() {
	var homes, subs, rest []*opPlan
	for _, p := range g.plans {
		switch {
		case p.anchor != nil:
			homes = append(homes, p)
		case p.sub != nil:
			subs = append(subs, p)
		default:
			rest = append(rest, p)
		}
	}
	for _, batch := range [][]*opPlan{homes, subs, rest} {
		for _, p := range batch {
			g.createOperator(p)
		}
	}
}

func (g *gen) govEntity(cc string) ownership.EntityID {
	id := ownership.EntityID("gov-" + cc)
	if _, ok := g.w.Graph.Entity(id); !ok {
		c := ccodes.MustByCode(cc)
		g.w.Graph.MustAddEntity(ownership.Entity{
			ID: id, Kind: ownership.KindGovernment,
			Name: "Government of " + c.Name, Country: cc,
		})
	}
	return id
}

func (g *gen) stateFunds(cc string) []ownership.EntityID {
	if fs, ok := g.fundsFor[cc]; ok {
		return fs
	}
	gov := g.govEntity(cc)
	c := ccodes.MustByCode(cc)
	names := []string{
		c.Name + " Sovereign Wealth Fund",
		c.Name + " National Trust",
		c.Name + " Employees Pension Fund",
	}
	fs := make([]ownership.EntityID, 3)
	for i, n := range names {
		id := ownership.EntityID(fmt.Sprintf("fund-%s-%d", cc, i))
		g.w.Graph.MustAddEntity(ownership.Entity{
			ID: id, Kind: ownership.KindFund, Name: n, Country: cc,
		})
		g.w.Graph.MustAddHolding(ownership.Holding{Holder: gov, Target: id, Share: 1})
		fs[i] = id
	}
	g.fundsFor[cc] = fs
	return fs
}

func (g *gen) createOperator(p *opPlan) {
	c := ccodes.MustByCode(p.country)
	prof := g.w.Profiles[p.country]
	r := g.root.Sub("op/" + p.id)

	entID := ownership.EntityID("ent-" + p.id)
	var legal string
	if p.anchor != nil {
		legal = p.anchor.LegalName
	} else {
		legal = legalName(r, p.brand, c)
	}
	g.w.Graph.MustAddEntity(ownership.Entity{
		ID: entID, Kind: ownership.KindCompany, Name: legal, Country: p.country,
	})

	var allocated float64
	addHolding := func(holder ownership.EntityID, share float64) {
		if share <= 0 {
			return
		}
		if allocated+share > 1 {
			share = 1 - allocated
		}
		if share <= 1e-9 {
			return
		}
		g.w.Graph.MustAddHolding(ownership.Holding{Holder: holder, Target: entID, Share: share})
		allocated += share
	}

	anchorKey := ""
	if p.anchor != nil {
		anchorKey = p.anchor.Key
	}
	switch {
	case p.sub != nil:
		parent, ok := g.w.Operators[p.parentID]
		if !ok {
			panic(fmt.Sprintf("world: subsidiary %s created before parent %s", p.id, p.parentID))
		}
		addHolding(parent.Entity, p.parentShare)
	case p.stateShare > 0 && !skipDefaultGov[anchorKey]:
		switch {
		case p.fundsSplit:
			funds := g.stateFunds(p.country)
			split := []float64{0.45, 0.30, 0.25}
			for i, f := range funds {
				addHolding(f, p.stateShare*split[i])
			}
		case p.holdco != "":
			hID := ownership.EntityID("hold-" + p.id)
			g.w.Graph.MustAddEntity(ownership.Entity{
				ID: hID, Kind: ownership.KindCompany, Name: p.holdco, Country: p.country,
			})
			g.w.Graph.MustAddHolding(ownership.Holding{
				Holder: g.govEntity(p.country), Target: hID, Share: 1,
			})
			addHolding(hID, p.stateShare)
		default:
			addHolding(g.govEntity(p.country), p.stateShare)
		}
	case p.minorityShare > 0:
		addHolding(g.govEntity(p.country), p.minorityShare)
	}

	// Special wiring is applied later (wireSpecialHoldings), so leave
	// room: reserve the special shares before assigning the float.
	var reservedSpecial float64
	for _, sw := range specialWiring {
		if sw.targetKey == anchorKey {
			reservedSpecial += sw.share
		}
	}
	if rem := 1 - allocated - reservedSpecial; rem > 0.001 {
		floatID := ownership.EntityID("float-" + p.id)
		g.w.Graph.MustAddEntity(ownership.Entity{
			ID: floatID, Kind: ownership.KindPrivate,
			Name: legal + " public float", Country: p.country,
		})
		g.w.Graph.MustAddHolding(ownership.Holding{Holder: floatID, Target: entID, Share: rem})
	}

	web := prof.ICT + r.Norm(0.05, 0.10)
	if p.anchor != nil || p.sub != nil {
		web = 0.97
	}
	web = clamp01(web)

	former := p.formerLegal
	if former == "" && p.anchor == nil && p.sub == nil && p.kind.InScope() {
		if r.Bool(0.30 - 0.20*prof.ICT) {
			former = legalName(r, brandName(r)+" Communications", c)
		}
	}

	g.orgSeq++
	op := &Operator{
		QuietGateway: p.ctiOnly,
		ID:           p.id, Entity: entID, OrgID: orgID(p.brand, g.orgSeq, c.RIR),
		LegalName: legal, BrandName: p.brand, FormerName: former,
		Conglomerate: p.conglom, Kind: p.kind, Country: p.country,
		AddrShare: p.addrShare, WebPresence: web, Founded: p.founded,
	}
	if op.Conglomerate == "" {
		op.Conglomerate = p.brand
	}
	g.w.Operators[p.id] = op
	g.w.OperatorIDs = append(g.w.OperatorIDs, p.id)
}

func (g *gen) wireSpecialHoldings() {
	for _, sw := range specialWiring {
		targetID, ok := g.anchorOp[sw.targetKey]
		if !ok {
			continue
		}
		target := g.w.Operators[targetID]
		var holder ownership.EntityID
		if len(sw.holderKey) > 4 && sw.holderKey[:4] == "gov:" {
			cc := sw.holderKey[4:]
			if !g.inScope[cc] {
				continue
			}
			holder = g.govEntity(cc)
		} else {
			hID, ok := g.anchorOp[sw.holderKey]
			if !ok {
				continue
			}
			holder = g.w.Operators[hID].Entity
		}
		g.w.Graph.MustAddHolding(ownership.Holding{
			Holder: holder, Target: target.Entity, Share: sw.share,
		})
	}
}

func (g *gen) allocASN() ASN {
	for g.reserved[g.nextASN] {
		g.nextASN++
	}
	n := g.nextASN
	g.nextASN++
	return n
}

// asnCount decides how many sibling ASNs an operator holds. The paper's
// dataset averages ~3.3 ASNs per state-owned company; state incumbents
// accumulate siblings through history and acquisitions.
func (g *gen) asnCount(p *opPlan, r *rng.Stream) int {
	switch p.kind {
	case KindIncumbent:
		if p.stateShare > 0 {
			return r.IntBetween(3, 6)
		}
		return r.IntBetween(1, 3)
	case KindMobile:
		if p.stateShare > 0 {
			return r.IntBetween(2, 4)
		}
		return r.IntBetween(1, 2)
	case KindTransit, KindSubmarineCable:
		if p.stateShare > 0 {
			return r.IntBetween(2, 3)
		}
		return r.IntBetween(1, 2)
	default:
		return 1
	}
}

func (g *gen) assignASNsAndPrefixes() {
	for _, p := range g.plans {
		op := g.w.Operators[p.id]
		r := g.root.Sub("asn/" + p.id)
		prof := g.w.Profiles[p.country]

		var asns []ASN
		switch {
		case p.anchor != nil:
			asns = append(asns, p.anchor.ASNs...)
		case p.sub != nil && len(p.sub.ASNs) > 0:
			asns = append(asns, p.sub.ASNs...)
		case p.sub != nil:
			n := 1
			if p.transitOnly {
				if r.Bool(0.4) {
					n = 2
				}
			} else {
				n = r.IntBetween(2, 3)
			}
			for i := 0; i < n; i++ {
				asns = append(asns, g.allocASN())
			}
		default:
			n := g.asnCount(p, r)
			for i := 0; i < n; i++ {
				asns = append(asns, g.allocASN())
			}
		}
		op.ASNs = asns

		// Address space.
		var total uint64
		switch {
		case p.ctiOnly:
			total = 512
		case p.transitOnly:
			total = 4096
		case p.kind == KindAcademic:
			total = uint64(0.03 * float64(prof.AddressBudget))
		case p.kind == KindGovernmentNet:
			frac := r.FloatBetween(0.005, 0.03)
			if p.country == "US" {
				frac = 0.25 // the DoD-style legacy block (Appendix E)
			}
			total = uint64(frac * float64(prof.AddressBudget))
		case p.kind == KindInternetAdmin:
			total = 512
		case p.kind == KindMunicipal:
			total = 2048
		case p.kind == KindEnterprise:
			// Mature ecosystems host large cloud/hosting allocations;
			// most stubs stay tiny, and a hosting block never dwarfs
			// its country's access space.
			switch {
			case prof.AddressBudget > 4<<20 && r.Bool(0.10*prof.ICT):
				total = 65536 // /16 hosting block
			case prof.AddressBudget > 1<<20 && r.Bool(0.18*prof.ICT):
				total = 16384 // /18
			default:
				total = 256 << uint(r.Intn(3)) // /24../22
			}
		default:
			total = uint64(p.addrShare * float64(prof.AddressBudget))
		}
		if total < 256 {
			total = 256
		}
		sizes := prefixSizes(total)
		prefixes := make([]netaddr.Prefix, 0, len(sizes))
		for _, bits := range sizes {
			pf, ok := g.alloc.Alloc(bits)
			if !ok {
				break
			}
			prefixes = append(prefixes, pf)
		}

		for i, asn := range asns {
			year := op.Founded + i*r.IntBetween(0, 4)
			if year > 2019 {
				year = 2019
			}
			a := &AS{
				Number: asn, OperatorID: p.id,
				Name:    asName(r, op.BrandName, p.country, i),
				Country: p.country, Registered: year,
			}
			g.w.ASes[asn] = a
			g.w.ASNList = append(g.w.ASNList, asn)
		}
		// The first AS originates the bulk; others receive the tail
		// blocks round-robin (siblings announce some space each).
		for i, pf := range prefixes {
			var target ASN
			if i == 0 || len(asns) == 1 {
				target = asns[0]
			} else {
				target = asns[i%len(asns)]
			}
			ga := g.w.ASes[target]
			ga.Prefixes = append(ga.Prefixes, pf)
		}
	}
}

// prefixSizes decomposes an address total into at most 12 CIDR block
// sizes between /6 and /24, greedily from the largest.
func prefixSizes(total uint64) []uint8 {
	var out []uint8
	remaining := total
	for len(out) < 12 && remaining >= 256 {
		bits := uint8(24)
		for b := uint8(6); b < 24; b++ {
			if uint64(1)<<(32-uint(b)) <= remaining {
				bits = b
				break
			}
		}
		out = append(out, bits)
		remaining -= uint64(1) << (32 - uint(bits))
	}
	if len(out) == 0 {
		out = append(out, 24)
	}
	return out
}

func (g *gen) assignSubscribers() {
	for _, p := range g.plans {
		op := g.w.Operators[p.id]
		if !op.Kind.ProvidesAccess() || p.transitOnly {
			continue
		}
		prof := g.w.Profiles[p.country]
		r := g.root.Sub("subs/" + p.id)
		// Eyeball share tracks address share with multiplicative noise;
		// the two technical sources must agree often but not always
		// (the paper found 466 of ~1050 candidate ASes in both).
		share := p.addrShare * r.LogNorm(0, 0.18)
		if share > 1 {
			share = 1
		}
		op.Subscribers = int(share * float64(prof.InternetUsers))
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }
