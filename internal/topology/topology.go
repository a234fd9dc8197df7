// Package topology builds the AS-level relationship graph of the
// synthetic world: customer-provider and peer-peer edges in the
// Gao-Rexford tradition, customer-cone computation with CAIDA ASRank
// semantics, and yearly historical snapshots (2010-2020) for the paper's
// cone-growth analysis (Figure 5).
//
// The builder plants the paper's Table 5 transit anchors: operators with a
// published customer-cone size get deterministic country assignments in
// their service regions until the (world-scaled) cone target is reached,
// so the reproduced top-10 ranking is comparable to the paper's.
package topology

import (
	"slices"
	"sort"

	"stateowned/internal/ccodes"
	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// FirstYear and FinalYear bound the historical snapshots.
const (
	FirstYear = 2010
	FinalYear = 2020
)

// PaperVisibleASes is the size of the global routing table in the paper's
// July 2019 snapshot; cone targets are scaled by worldSize/PaperVisibleASes.
const PaperVisibleASes = 68283

// Graph is the AS relationship graph for one snapshot year.
type Graph struct {
	Year int

	// index maps ASN -> dense index; asns is the inverse.
	index map[world.ASN]int
	asns  []world.ASN

	providers [][]int // providers[i] = dense indices of i's providers
	customers [][]int
	peers     [][]int
}

// NumASes reports how many ASes are active in this snapshot.
func (g *Graph) NumASes() int { return len(g.asns) }

// ASes returns the active ASNs in ascending order.
func (g *Graph) ASes() []world.ASN { return g.asns }

// Active reports whether the ASN exists in this snapshot.
func (g *Graph) Active(a world.ASN) bool {
	_, ok := g.index[a]
	return ok
}

// Index returns the dense index of an ASN.
func (g *Graph) Index(a world.ASN) (int, bool) {
	i, ok := g.index[a]
	return i, ok
}

// ASNAt returns the ASN at a dense index.
func (g *Graph) ASNAt(i int) world.ASN { return g.asns[i] }

// Providers returns the provider ASNs of a.
func (g *Graph) Providers(a world.ASN) []world.ASN { return g.expand(g.providers, a) }

// Customers returns the customer ASNs of a.
func (g *Graph) Customers(a world.ASN) []world.ASN { return g.expand(g.customers, a) }

// Peers returns the peer ASNs of a.
func (g *Graph) Peers(a world.ASN) []world.ASN { return g.expand(g.peers, a) }

func (g *Graph) expand(adj [][]int, a world.ASN) []world.ASN {
	i, ok := g.index[a]
	if !ok {
		return nil
	}
	out := make([]world.ASN, len(adj[i]))
	for k, j := range adj[i] {
		out[k] = g.asns[j]
	}
	return out
}

// ProviderIdx exposes the dense provider adjacency for the BGP simulator.
func (g *Graph) ProviderIdx(i int) []int { return g.providers[i] }

// CustomerIdx exposes the dense customer adjacency.
func (g *Graph) CustomerIdx(i int) []int { return g.customers[i] }

// PeerIdx exposes the dense peer adjacency.
func (g *Graph) PeerIdx(i int) []int { return g.peers[i] }

// addEdge records a provider->customer relationship (deduplicated).
func (g *Graph) addEdge(provider, customer int) {
	if provider == customer {
		return
	}
	for _, c := range g.customers[provider] {
		if c == customer {
			return
		}
	}
	// Refuse mutual customer-provider pairs (would create a one-link
	// valley); the first direction wins.
	for _, c := range g.customers[customer] {
		if c == provider {
			return
		}
	}
	g.customers[provider] = append(g.customers[provider], customer)
	g.providers[customer] = append(g.providers[customer], provider)
}

// addPeer records a peer-peer relationship (deduplicated, symmetric).
func (g *Graph) addPeer(a, b int) {
	if a == b {
		return
	}
	for _, p := range g.peers[a] {
		if p == b {
			return
		}
	}
	g.peers[a] = append(g.peers[a], b)
	g.peers[b] = append(g.peers[b], a)
}

// CustomerCone returns the ASRank-style customer cone of a: the AS itself
// plus every AS reachable by following customer links. The result is
// sorted.
func (g *Graph) CustomerCone(a world.ASN) []world.ASN {
	i, ok := g.index[a]
	if !ok {
		return nil
	}
	seen := make([]bool, len(g.asns))
	seen[i] = true
	queue := []int{i}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range g.customers[cur] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	var out []world.ASN
	for j, s := range seen {
		if s {
			out = append(out, g.asns[j])
		}
	}
	slices.Sort(out)
	return out
}

// ConeSize returns |CustomerCone(a)| without materializing the slice.
func (g *Graph) ConeSize(a world.ASN) int {
	i, ok := g.index[a]
	if !ok {
		return 0
	}
	seen := make([]bool, len(g.asns))
	seen[i] = true
	queue := []int{i}
	n := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range g.customers[cur] {
			if !seen[c] {
				seen[c] = true
				n++
				queue = append(queue, c)
			}
		}
	}
	return n
}

// coneAnchor is one planted transit attractor.
type coneAnchor struct {
	asn       world.ASN
	target    int // paper cone size (unscaled)
	startYear int // 0 = mature across the window
	countries []string
}

// regionCountries returns the ISO codes of a RIR's countries except the
// listed exclusions, sorted.
func regionCountries(r ccodes.RIR, exclude ...string) []string {
	ex := map[string]bool{}
	for _, e := range exclude {
		ex[e] = true
	}
	var out []string
	for _, c := range ccodes.InRIR(r) {
		if !ex[c.Code] {
			out = append(out, c.Code)
		}
	}
	return out
}

// anchorServiceRegions maps anchor keys to the countries whose gateways
// they attract as transit customers, in planting priority order.
func anchorServiceRegions() map[string][]string {
	cis := []string{"AM", "BY", "KZ", "KG", "TJ", "UZ", "UA", "MD", "GE", "AZ", "MN"}
	return map[string][]string{
		"singtel":      append([]string{"AU", "ID", "MY", "TH", "PH", "VN", "LK", "BD", "NP", "KH", "LA", "MM"}, regionCountries(ccodes.APNIC, "CN", "SG")...),
		"rostelecom":   append(append([]string{"RU"}, cis...), "RS", "BA", "BG", "MD"),
		"ttk":          append([]string{"RU"}, cis...),
		"angolacables": append([]string{"AO"}, regionCountries(ccodes.AFRINIC, "AO")...),
		"internexa":    []string{"CO", "EC", "VE", "PA", "CR"},
		"chinatelecom": append([]string{"CN", "HK", "MO", "PK"}, regionCountries(ccodes.APNIC, "CN", "SG", "AU", "JP")...),
		"chinaunicom":  []string{"CN", "HK", "KP", "MN", "LA"},
		"swisscom":     []string{"CH", "IT", "AT", "LI", "DE", "FR"},
		"exatel":       []string{"PL", "LT", "LV", "EE", "CZ", "SK", "UA"},
		"bsccl":        []string{"BD", "BT", "NP", "MM"},
	}
	// Internexa-BR's cone is planted separately (it is a subsidiary
	// operator, keyed by host): see plantedAnchors.
}

// Build constructs the relationship graph for one snapshot year.
func Build(w *world.World, year int) *Graph {
	var asns []world.ASN
	for _, asn := range w.ASNList {
		if w.ASes[asn].Registered <= year {
			asns = append(asns, asn)
		}
	}
	g := newGraph(year, asns)

	b := &builder{w: w, g: g, r: rng.New(w.Seed).Sub("topology")}
	b.classify()
	b.wireTier1()
	b.plantCones(year)
	b.wireGateways()
	b.wireDomestic()
	b.wirePeering()
	return g
}

// newGraph returns an edgeless graph over asns, which it keeps, with
// dense indices in their order.
func newGraph(year int, asns []world.ASN) *Graph {
	g := &Graph{Year: year, index: make(map[world.ASN]int, len(asns)), asns: asns}
	for i, a := range asns {
		g.index[a] = i
	}
	n := len(asns)
	g.providers = make([][]int, n)
	g.customers = make([][]int, n)
	g.peers = make([][]int, n)
	return g
}

// FromEdges builds a graph over the given ASNs from explicit
// relationships — each link a [provider, customer] pair, each peering
// an [a, b] pair — deduplicated and made symmetric as Build does. It
// serves hand-shaped topologies in tests, where a generated world
// cannot place an edge case precisely. Every ASN an edge names must be
// listed.
func FromEdges(asns []world.ASN, links, peerings [][2]world.ASN) *Graph {
	sorted := append([]world.ASN(nil), asns...)
	world.SortASNs(sorted)
	g := newGraph(0, sorted)
	for _, l := range links {
		g.addEdge(g.index[l[0]], g.index[l[1]])
	}
	for _, p := range peerings {
		g.addPeer(g.index[p[0]], g.index[p[1]])
	}
	return g
}

type builder struct {
	w *world.World
	g *Graph
	r *rng.Stream

	tier1    []int            // dense indices of the global tier-1 clique
	gateways map[string][]int // country -> gateway dense indices
	planted  map[int][]int    // gateway idx -> attractor idxs it must buy from
	attr     map[world.ASN]bool
}

// classify picks the tier-1 clique and each country's gateway set.
//
// Tier-1s are the first ASes of the largest-footprint operators in the
// biggest high-ICT economies; gateways are each country's incumbent,
// transit and submarine-cable ASes (first AS per operator).
func (b *builder) classify() {
	b.gateways = make(map[string][]int)
	b.planted = make(map[int][]int)
	b.attr = make(map[world.ASN]bool)

	// Cone anchors must not join the tier-1 clique: tier-1s attract
	// random uplinks from everywhere, which would blow their cones far
	// past the planted targets.
	anchorOps := map[string]bool{}
	for i := range world.Anchors {
		a := &world.Anchors[i]
		if a.ConeTarget == 0 {
			continue
		}
		for _, n := range a.ASNs {
			if op, ok := b.w.OperatorOfAS(n); ok {
				anchorOps[op.ID] = true
			}
		}
	}

	type cand struct {
		idx   int
		score float64
	}
	var t1cands []cand
	for _, id := range b.w.OperatorIDs {
		op := b.w.Operators[id]
		if len(op.ASNs) == 0 {
			continue
		}
		first := op.ASNs[0]
		idx, active := b.g.index[first]
		if !active {
			continue
		}
		switch op.Kind {
		case world.KindIncumbent, world.KindTransit, world.KindSubmarineCable:
			// Foreign-owned transit subsidiaries (China Telecom
			// Americas and kin) serve international customers, not the
			// host's domestic access market; they never act as national
			// gateways.
			if op.Kind != world.KindIncumbent {
				if _, foreign := b.w.Graph.IsForeignSubsidiary(op.Entity); foreign {
					continue
				}
			}
			b.gateways[op.Country] = append(b.gateways[op.Country], idx)
			prof := b.w.Profiles[op.Country]
			c := ccodes.MustByCode(op.Country)
			// Tier-1 carriers are private in practice (majority
			// state-owned networks serve national or regional roles, as
			// in Table 5); keeping them out of the clique also keeps
			// their cones comparable to the paper's.
			if prof.ICT > 0.72 && c.Population > 30000 &&
				op.Kind != world.KindSubmarineCable && !anchorOps[op.ID] &&
				!b.w.ControlOf(op).Controlled() {
				t1cands = append(t1cands, cand{idx, float64(c.Population) * prof.ICT})
			}
		}
	}
	sort.Slice(t1cands, func(i, j int) bool {
		if t1cands[i].score != t1cands[j].score {
			return t1cands[i].score > t1cands[j].score
		}
		return b.g.asns[t1cands[i].idx] < b.g.asns[t1cands[j].idx]
	})
	seen := map[string]bool{}
	for _, c := range t1cands {
		op, _ := b.w.OperatorOfAS(b.g.asns[c.idx])
		if seen[op.Country] && len(b.tier1) >= 6 {
			continue // at most two tier-1s per country early on
		}
		b.tier1 = append(b.tier1, c.idx)
		seen[op.Country] = true
		if len(b.tier1) >= 13 {
			break
		}
	}
}

// wireTier1 meshes the tier-1 clique with peer links.
func (b *builder) wireTier1() {
	for i := 0; i < len(b.tier1); i++ {
		for j := i + 1; j < len(b.tier1); j++ {
			b.g.addPeer(b.tier1[i], b.tier1[j])
		}
	}
}

// coneASNOverride picks the sibling AS that carries the published cone
// when it is not the operator's primary AS (the paper's Table 5 lists
// AS4809 and AS10099, the carrier-grade siblings of China Telecom and
// China Unicom).
var coneASNOverride = map[string]world.ASN{
	"chinatelecom": 4809,
	"chinaunicom":  10099,
}

// plantedAnchors resolves the cone anchors active in the world.
func (b *builder) plantedAnchors() []coneAnchor {
	regions := anchorServiceRegions()
	var out []coneAnchor
	for i := range world.Anchors {
		a := &world.Anchors[i]
		if a.ConeTarget == 0 {
			continue
		}
		asn := a.ASNs[0]
		if o, ok := coneASNOverride[a.Key]; ok {
			asn = o
		}
		if !b.g.Active(asn) {
			continue
		}
		out = append(out, coneAnchor{
			asn: asn, target: a.ConeTarget,
			startYear: a.ConeStartYear, countries: regions[a.Key],
		})
	}
	// Internexa Brasil (the Table 5 entry) is a subsidiary AS.
	if b.g.Active(262589) {
		out = append(out, coneAnchor{
			asn: 262589, target: 1315,
			countries: []string{"BR", "AR", "CL", "PE", "PY", "UY", "BO"},
		})
	}
	// National-backbone builders (§4.1: ARSAT's backbone, Telebras,
	// Internexa at home): they transit a meaningful slice of their home
	// country, which is exactly why the paper's CTI source surfaced them
	// when Orbis failed to label them.
	for asn, home := range map[world.ASN]string{
		52361: "AR", // ARSAT
		53237: "BR", // Telebras
		18678: "CO", // Internexa
	} {
		if b.g.Active(asn) {
			out = append(out, coneAnchor{asn: asn, target: 300, countries: []string{home}})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].target != out[j].target {
			return out[i].target > out[j].target
		}
		return out[i].asn < out[j].asn
	})
	return out
}

// plantCalibration corrects each anchor's planting budget for the
// measured capture/credit ratio of its service region: anchors serving
// gateway-concentrated markets capture more than the credit formula
// estimates (ratio > 1, so they need less budget), anchors in open
// multi-gateway markets capture less. The constants were measured once on
// the default world and keep the planted cones near their scaled targets
// so Table 5 reproduces the paper's ranking.
var plantCalibration = map[world.ASN]float64{
	7473:   1.28, // SingTel: open APAC markets dilute capture
	12389:  0.78, // Rostelecom: CIS gateways capture whole countries
	20485:  0.79, // TTK
	37468:  0.77, // Angola Cables
	262589: 0.90, // Internexa Brasil
	4809:   0.92, // China Telecom
	10099:  0.83, // China Unicom
	3303:   1.00, // Swisscom
	20804:  0.77, // Exatel
	132602: 1.40, // BSCCL: small South-Asia markets, heavy dilution
}

// plantCones assigns whole-country gateway upstreams to each anchor until
// its scaled cone target is met.
func (b *builder) plantCones(year int) {
	scale := float64(b.g.NumASes()) / PaperVisibleASes
	for _, a := range b.plantedAnchors() {
		target := float64(a.target) * scale
		if cal, ok := plantCalibration[a.asn]; ok {
			target *= cal
		}
		if a.startYear > 0 {
			// Linear ramp from startYear to the final year.
			if year < a.startYear {
				target = 0
			} else if year < FinalYear {
				target *= float64(year-a.startYear+1) / float64(FinalYear-a.startYear+1)
			}
		}
		aIdx, ok := b.g.index[a.asn]
		if !ok || target <= 0 {
			continue
		}
		b.attr[a.asn] = true
		acquired := 0.0
		for _, cc := range a.countries {
			if acquired >= target {
				break
			}
			gws := b.gateways[cc]
			if len(gws) == 0 {
				continue
			}
			size := b.countryASCount(cc)
			// The anchor becomes an upstream of one of this country's
			// gateways: prefer its own operator's primary AS (so carrier
			// siblings like AS4809 sit above AS4134 and inherit that
			// subtree), else the first gateway that is not the anchor.
			anchorOp, _ := b.w.OperatorOfAS(a.asn)
			chosen := -1
			for _, gw := range gws {
				if gw == aIdx {
					continue
				}
				gwOp, _ := b.w.OperatorOfAS(b.g.asns[gw])
				if anchorOp != nil && gwOp != nil && gwOp.ID == anchorOp.ID {
					chosen = gw
					break
				}
				if chosen < 0 {
					chosen = gw
				}
			}
			if chosen >= 0 {
				b.planted[chosen] = append(b.planted[chosen], aIdx)
				// Credit the chosen gateway's expected subtree: the
				// whole country in gateway-concentrated markets, a
				// fraction of it where domestic ASes spread across
				// several gateways.
				credit := float64(size)
				if !b.w.Profiles[cc].GatewayConcentrated {
					// Open markets spread domestic ASes across all
					// gateways; the chosen one carries ~1/len(gws), and
					// multihoming dilutes the capture a little further.
					credit = credit / float64(len(gws)) * 0.7
				}
				acquired += credit
			}
		}
		// Anchors that are not gateways (carrier siblings) still need
		// upstream connectivity so the rest of the world can reach
		// prefixes they originate.
		if !b.isGateway(aIdx) && len(b.tier1) > 0 {
			b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], aIdx)
		}
	}
}

func (b *builder) isGateway(idx int) bool {
	cc := b.w.ASes[b.g.asns[idx]].Country
	for _, g := range b.gateways[cc] {
		if g == idx {
			return true
		}
	}
	return false
}

func (b *builder) countryASCount(cc string) int {
	n := 0
	for _, asn := range b.g.asns {
		if b.w.ASes[asn].Country == cc {
			n++
		}
	}
	return n
}

// wireGateways connects each country's gateways upstream: planted anchors
// first, then a tier-1, and sibling gateways under the first gateway.
func (b *builder) wireGateways() {
	countries := make([]string, 0, len(b.gateways))
	for cc := range b.gateways {
		countries = append(countries, cc)
	}
	sort.Strings(countries)
	for _, cc := range countries {
		gws := b.gateways[cc]
		sort.Ints(gws)
		prof := b.w.Profiles[cc]

		// Quiet transit gateways (the Table 7 class) sit above the rest
		// of a gateway-concentrated country: the international
		// chokepoint CTI is designed to surface.
		quiet := -1
		if prof.GatewayConcentrated {
			for _, gw := range gws {
				op, _ := b.w.OperatorOfAS(b.g.asns[gw])
				if op != nil && op.QuietGateway {
					quiet = gw
					break
				}
			}
		}
		// The primary domestic gateway is the first non-quiet one.
		primary := -1
		for _, gw := range gws {
			if gw != quiet {
				primary = gw
				break
			}
		}
		secondaryDone := false

		for _, gw := range gws {
			asn := b.g.asns[gw]
			if b.attr[asn] || b.isTier1(gw) {
				// Anchors and tier-1s sit at the top: anchors buy from
				// two tier-1s, tier-1s only peer.
				if b.attr[asn] && len(b.tier1) > 0 {
					b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], gw)
					b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], gw)
				}
				continue
			}
			if gw == quiet {
				// The chokepoint itself buys from tier-1s.
				if len(b.tier1) > 0 {
					b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], gw)
					b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], gw)
				}
				continue
			}
			if gw == primary && quiet >= 0 && len(gws) <= 2 {
				// Two-gateway chokepoint countries (Belarus-style): the
				// whole country funnels through the quiet gateway.
				b.g.addEdge(quiet, gw)
				continue
			}
			if gw != primary {
				// Secondary gateways: in concentrated countries the
				// first nests under the quiet gateway when one exists
				// (so CTI sees it carrying a market-sized subtree), the
				// rest under the primary.
				if prof.GatewayConcentrated {
					if quiet >= 0 && !secondaryDone {
						secondaryDone = true
						b.g.addEdge(quiet, gw)
					} else if primary >= 0 {
						b.g.addEdge(primary, gw)
					}
					continue
				}
			}
			for _, attr := range b.planted[gw] {
				b.g.addEdge(attr, gw)
			}
			if quiet >= 0 && gw == primary {
				b.g.addEdge(quiet, gw)
			}
			if len(b.planted[gw]) == 0 && len(b.tier1) > 0 {
				b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], gw)
			}
			if !prof.GatewayConcentrated && len(b.tier1) > 0 && b.r.Bool(0.5) {
				b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], gw)
			}
		}
	}
}

func (b *builder) isTier1(idx int) bool {
	for _, t := range b.tier1 {
		if t == idx {
			return true
		}
	}
	return false
}

// wireDomestic attaches every non-gateway AS to gateways of its country
// (or a tier-1 when the country has none).
func (b *builder) wireDomestic() {
	gwSet := make(map[int]bool)
	for _, gws := range b.gateways {
		for _, g := range gws {
			gwSet[g] = true
		}
	}
	for i, asn := range b.g.asns {
		if gwSet[i] || b.isTier1(i) || b.attr[asn] {
			continue
		}
		cc := b.w.ASes[asn].Country
		gws := b.gateways[cc]
		op, _ := b.w.OperatorOfAS(asn)
		if len(gws) == 0 {
			if len(b.tier1) > 0 {
				b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], i)
			}
			continue
		}
		// Sibling ASes of a gateway operator nest under their own
		// primary AS.
		if op != nil && len(op.ASNs) > 1 && op.ASNs[0] != asn {
			if pIdx, ok := b.g.index[op.ASNs[0]]; ok && gwSet[pIdx] {
				b.g.addEdge(pIdx, i)
				continue
			}
		}
		primary := gws[b.r.Intn(len(gws))]
		b.g.addEdge(primary, i)
		prof := b.w.Profiles[cc]
		if !prof.GatewayConcentrated && b.r.Bool(0.3) && len(gws) > 1 {
			b.g.addEdge(gws[b.r.Intn(len(gws))], i)
		}
		// Occasional direct foreign upstream in open markets.
		if !prof.GatewayConcentrated && b.r.Bool(0.18) && len(b.tier1) > 0 {
			b.g.addEdge(b.tier1[b.r.Intn(len(b.tier1))], i)
		}
	}
}

// wirePeering adds IXP-style peer edges between gateways of neighboring
// countries (same RIR).
func (b *builder) wirePeering() {
	byRIR := make(map[ccodes.RIR][]int)
	for cc, gws := range b.gateways {
		c := ccodes.MustByCode(cc)
		if len(gws) > 0 {
			byRIR[c.RIR] = append(byRIR[c.RIR], gws[0])
		}
	}
	for _, rir := range ccodes.AllRIRs() {
		gws := byRIR[rir]
		sort.Ints(gws)
		for i := 0; i < len(gws); i++ {
			for j := i + 1; j < len(gws); j++ {
				if b.r.Bool(0.06) {
					b.g.addPeer(gws[i], gws[j])
				}
			}
		}
	}
}

// Snapshots builds one graph per year in [FirstYear, FinalYear].
func Snapshots(w *world.World) map[int]*Graph {
	out := make(map[int]*Graph, FinalYear-FirstYear+1)
	for y := FirstYear; y <= FinalYear; y++ {
		out[y] = Build(w, y)
	}
	return out
}

// GrowthSlope fits an ordinary least-squares line to (year, coneSize)
// points and returns the slope (cone growth per year); used to rank the
// fastest-growing state-owned cones (§8).
func GrowthSlope(years []int, sizes []int) float64 {
	if len(years) != len(sizes) || len(years) < 2 {
		return 0
	}
	n := float64(len(years))
	var sx, sy, sxy, sxx float64
	for i := range years {
		x, y := float64(years[i]), float64(sizes[i])
		sx += x
		sy += y
		sxy += x * y
		sxx += x * x
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
