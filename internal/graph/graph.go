// Package graph compiles the relationship query plane: an immutable,
// per-generation index over the AS topology answering the questions
// operators actually ask of an Internet map — who are X's providers,
// customers, peers and siblings; what is X's customer cone; which
// transits does the world depend on to reach X; what is the shortest
// valley-free route between two ASes.
//
// Everything except the path oracle is precomputed at build time, so a
// query is O(result): adjacency lists per relationship class in dense
// handle-indexed arrays, the transitive customer-cone closure as
// compact sorted-ASN slices, and hegemony-style transit-dependency
// scores (the fraction of observed monitor paths toward an AS that
// traverse each transit, derived from the same per-origin valley-free
// propagation CTI consumes). The path oracle runs a two-phase BFS over
// the precomputed dense arrays per query — still independent of the
// dataset layer, and the only query whose cost scales with the graph.
//
// Build rides internal/sched.ParallelFor: cone closure and dependency
// scoring fan out per-AS, each iteration writing only slots no other
// iteration writes (its own, plus its single-homed stub customers' in
// the dependency phase) and borrowing its worker's scratch, which
// starts every iteration reset,
// so the compiled graph is bit-identical for every worker count — the
// differential suite enforces this along with deep equality against
// naive on-demand traversals of the raw topology.
package graph

import (
	"cmp"
	"slices"
	"strings"

	"stateowned/internal/as2org"
	"stateowned/internal/bgp"
	"stateowned/internal/sched"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// Class identifies one relationship class of the classed adjacency.
type Class uint8

// The four relationship classes. Provider/Customer/Peer come from the
// Gao-Rexford topology; Sibling is AS2Org co-membership (other ASNs
// registered under the same inferred organization).
const (
	Provider Class = iota
	Customer
	Peer
	Sibling
	numClasses
)

// String returns the wire name of a class — the same token ParseClass
// accepts and the HTTP layer echoes in responses.
func (c Class) String() string {
	switch c {
	case Provider:
		return "provider"
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Sibling:
		return "sibling"
	}
	return "invalid"
}

// ParseClass resolves a relationship-class name (case-insensitive) to
// its Class.
func ParseClass(s string) (Class, bool) {
	switch strings.ToLower(s) {
	case "provider":
		return Provider, true
	case "customer":
		return Customer, true
	case "peer":
		return Peer, true
	case "sibling":
		return Sibling, true
	}
	return 0, false
}

// Classes lists every relationship class in canonical order.
func Classes() []Class { return []Class{Provider, Customer, Peer, Sibling} }

// Dependency is one transit AS's share of the observed monitor paths
// toward an AS: Score = Paths / paths-observed-toward-the-AS, the
// hegemony-style dependency the upstreams ranking is ordered by.
type Dependency struct {
	Transit world.ASN `json:"asn"`
	Score   float64   `json:"score"`
	Paths   int       `json:"paths"`
}

// Graph is the compiled relationship index for one topology snapshot.
// It is immutable once built and safe for arbitrary concurrent readers;
// every accessor returns interior slices that callers must not mutate.
type Graph struct {
	topo *topology.Graph

	// adj[class][i] is the sorted ASN adjacency of dense index i.
	adj [numClasses][][]world.ASN
	// cones[i] is the sorted transitive customer cone of i, self
	// included (ASRank semantics, matching topology.CustomerCone).
	cones [][]world.ASN
	// deps[i] ranks the transits the monitor paths toward i traverse,
	// by Score descending then ASN ascending; observed[i] counts the
	// monitor paths that reached i (the score denominator).
	deps     [][]Dependency
	observed []int

	monitors int
}

// Build compiles the relationship index over a topology snapshot, the
// BGP monitor set the dependency scores are observed from, and the
// AS2Org mapping supplying sibling structure (nil = no sibling data).
// workers bounds the internal fan-out exactly as the pipeline's Workers
// knob does (<= 0 selects GOMAXPROCS; the result is identical for every
// worker count).
func Build(topo *topology.Graph, monitors []bgp.Monitor, orgs *as2org.Mapping, workers int) *Graph {
	n := topo.NumASes()
	g := &Graph{
		topo:     topo,
		cones:    make([][]world.ASN, n),
		deps:     make([][]Dependency, n),
		observed: make([]int, n),
		monitors: len(monitors),
	}
	for c := range g.adj {
		g.adj[c] = make([][]world.ASN, n)
	}

	// Phase 1: classed adjacency, one sorted ASN slice per (AS, class).
	sched.ParallelFor(workers, n, func(_, i int) {
		a := topo.ASNAt(i)
		g.adj[Provider][i] = sortedASNs(topo, topo.ProviderIdx(i))
		g.adj[Customer][i] = sortedASNs(topo, topo.CustomerIdx(i))
		g.adj[Peer][i] = sortedASNs(topo, topo.PeerIdx(i))
		if orgs != nil {
			var sibs []world.ASN
			for _, s := range orgs.Siblings(a) {
				if topo.Active(s) {
					sibs = append(sibs, s)
				}
			}
			world.SortASNs(sibs)
			g.adj[Sibling][i] = sibs
		}
	})

	// Phases 2 and 3 give each pool worker one scratch, reused across
	// every AS that worker takes.
	scratch := make([]buildScratch, sched.Workers(workers))

	// Phase 2: customer-cone closure. Each iteration BFSes the dense
	// customer edges and writes only its own slot.
	sched.ParallelFor(workers, n, func(w, i int) {
		g.cones[i] = scratch[w].coneOf(topo, i)
	})

	// Phase 3: transit-dependency scores. One valley-free propagation
	// per non-stub AS (the same kernel CTI's path collection runs),
	// within the monitors' bgp.Scope, since only monitor paths are read;
	// every monitor path toward origin i credits its transit hops. A
	// single-homed stub (bgp.StubProvider) is observed from its
	// provider's routes in the provider's iteration, which writes the
	// stub's slots too: a stub has one provider, so each slot still has
	// exactly one writer.
	mon := bgp.MonitorIndices(topo, monitors)
	scope := bgp.NewScope(topo, mon)
	sched.ParallelFor(workers, n, func(w, i int) {
		if _, stub := bgp.StubProvider(topo, i); stub {
			return
		}
		s := &scratch[w]
		s.prop.Propagate(topo, topo.ASNAt(i), scope)
		g.observed[i] = s.observe(topo, mon, i)
		g.deps[i] = s.ranking(topo, g.observed[i])
		for _, c := range topo.CustomerIdx(i) {
			if _, stub := bgp.StubProvider(topo, c); stub {
				g.observed[c] = s.observe(topo, mon, c)
				g.deps[c] = s.ranking(topo, g.observed[c])
			}
		}
	})

	return g
}

// buildScratch is one worker's reusable build state: the cone BFS's
// seen set and queue, the propagation kernel's scratch, and a dense
// per-AS transit counter that is reset through the list of indices it
// touched. Between iterations seen is all false and counts all zero.
type buildScratch struct {
	seen    []bool
	queue   []int
	prop    bgp.Scratch
	counts  []int32
	touched []int32
}

// sortedASNs maps dense indices to their ASNs, sorted ascending.
func sortedASNs(topo *topology.Graph, idxs []int) []world.ASN {
	if len(idxs) == 0 {
		return nil
	}
	out := make([]world.ASN, len(idxs))
	for k, j := range idxs {
		out[k] = topo.ASNAt(j)
	}
	world.SortASNs(out)
	return out
}

// coneOf BFSes the customer edges from i and returns the sorted cone,
// self included.
func (s *buildScratch) coneOf(topo *topology.Graph, i int) []world.ASN {
	if len(s.seen) < topo.NumASes() {
		s.seen = make([]bool, topo.NumASes())
	}
	s.seen[i] = true
	queue := append(s.queue[:0], i)
	for head := 0; head < len(queue); head++ {
		for _, c := range topo.CustomerIdx(queue[head]) {
			if !s.seen[c] {
				s.seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]world.ASN, len(queue))
	for k, j := range queue {
		out[k] = topo.ASNAt(j)
		s.seen[j] = false
	}
	s.queue = queue
	world.SortASNs(out)
	return out
}

// observe counts, into s.counts, how many monitor paths toward dense
// index o traverse each transit AS — the hops strictly between the
// monitor and o — walking the next-hop indices of the routes s.prop
// holds instead of materializing paths. s.prop must hold the
// propagation toward o or, for a single-homed stub o, toward o's
// provider: o's paths are then the provider's with o appended
// (bgp.StubProvider), so the walk runs through the provider, one more
// transit. mon holds the monitors' dense indices
// (bgp.MonitorIndices): each monitor contributes one path, so an AS
// hosting two counts twice. It returns how many monitor paths reached
// o; a monitor inside o contributes the one-hop path [o], which has no
// transits.
func (s *buildScratch) observe(topo *topology.Graph, mon []int, o int) (total int) {
	if len(s.counts) < topo.NumASes() {
		s.counts = make([]int32, topo.NumASes())
	}
	for _, m := range mon {
		if m == o {
			total++
			continue
		}
		if m < 0 || !s.prop.Routed(m) {
			continue
		}
		total++
		// The walk ends at o, or past the provider of a stub o, which
		// the propagation reaches as its origin, the one hop without a
		// next hop: distances fall strictly along next hops
		// (bgp.Scratch.Propagate).
		for t := s.prop.NextHop(m); t >= 0 && t != o; t = s.prop.NextHop(t) {
			if s.counts[t] == 0 {
				s.touched = append(s.touched, int32(t))
			}
			s.counts[t]++
		}
	}
	return total
}

// ranking turns the counts observe left in s into the dependency
// ranking of the origin it observed — Paths descending, ASN ascending —
// and resets the counter for the next origin. It returns nil when no
// monitor path had a transit hop.
func (s *buildScratch) ranking(topo *topology.Graph, total int) []Dependency {
	if len(s.touched) == 0 {
		return nil
	}
	deps := make([]Dependency, len(s.touched))
	for k, t := range s.touched {
		c := int(s.counts[t])
		deps[k] = Dependency{Transit: topo.ASNAt(int(t)), Score: float64(c) / float64(total), Paths: c}
	}
	s.resetCounts()
	slices.SortFunc(deps, func(x, y Dependency) int {
		if x.Paths != y.Paths {
			return cmp.Compare(y.Paths, x.Paths)
		}
		return cmp.Compare(x.Transit, y.Transit)
	})
	return deps
}

// resetCounts zeroes the counter through the touched list.
func (s *buildScratch) resetCounts() {
	for _, t := range s.touched {
		s.counts[t] = 0
	}
	s.touched = s.touched[:0]
}

// NumASes reports how many ASes the compiled graph covers.
func (g *Graph) NumASes() int { return g.topo.NumASes() }

// NumMonitors reports the size of the monitor set the dependency scores
// were observed from.
func (g *Graph) NumMonitors() int { return g.monitors }

// Active reports whether the ASN exists in the compiled snapshot.
func (g *Graph) Active(a world.ASN) bool { return g.topo.Active(a) }

// Neighbors returns a's sorted adjacency in one relationship class; ok
// is false when the ASN is not in the snapshot. The slice is interior —
// callers must not mutate it.
func (g *Graph) Neighbors(a world.ASN, c Class) (asns []world.ASN, ok bool) {
	i, ok := g.topo.Index(a)
	if !ok || c >= numClasses {
		return nil, false
	}
	return g.adj[c][i], true
}

// Cone returns a's transitive customer cone (sorted, self included), or
// nil when the ASN is not in the snapshot.
func (g *Graph) Cone(a world.ASN) []world.ASN {
	i, ok := g.topo.Index(a)
	if !ok {
		return nil
	}
	return g.cones[i]
}

// ConeSize returns |Cone(a)| without touching the members; 0 when the
// ASN is not in the snapshot.
func (g *Graph) ConeSize(a world.ASN) int {
	i, ok := g.topo.Index(a)
	if !ok {
		return 0
	}
	return len(g.cones[i])
}

// Upstreams returns the transits the observed monitor paths toward a
// depend on, ranked by Score descending (ties on ASN ascending); ok is
// false when the ASN is not in the snapshot.
func (g *Graph) Upstreams(a world.ASN) (deps []Dependency, ok bool) {
	i, ok := g.topo.Index(a)
	if !ok {
		return nil, false
	}
	return g.deps[i], true
}

// PathsObserved reports how many monitor paths reached a — the
// denominator of its dependency scores.
func (g *Graph) PathsObserved(a world.ASN) int {
	i, ok := g.topo.Index(a)
	if !ok {
		return 0
	}
	return g.observed[i]
}

// Path returns the shortest valley-free AS path from one AS to another
// (inclusive on both ends), deterministically tie-broken to the
// lexicographically smallest ASN sequence among the shortest. It
// returns nil when either endpoint is not in the snapshot or no
// valley-free route exists. The oracle is the one graph query that
// computes per call: a two-phase BFS (climbing, then descending after
// the first peer or customer edge — the Gao-Rexford export rule as a
// two-state automaton) over the precomputed dense adjacency.
func (g *Graph) Path(from, to world.ASN) []world.ASN {
	s, ok := g.topo.Index(from)
	if !ok {
		return nil
	}
	d, ok := g.topo.Index(to)
	if !ok {
		return nil
	}
	if s == d {
		return []world.ASN{from}
	}
	topo := g.topo
	n := topo.NumASes()

	// Backward BFS from the destination (either phase counts as
	// arrival), computing each state's remaining distance. State
	// encoding: 2*i for "climb allowed", 2*i+1 for "descend only".
	rdist := make([]int32, 2*n)
	for i := range rdist {
		rdist[i] = -1
	}
	rdist[2*d], rdist[2*d+1] = 0, 0
	queue := []int32{int32(2 * d), int32(2*d + 1)}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		x, phase := int(st>>1), st&1
		next := rdist[st] + 1
		relax := func(state int32) {
			if rdist[state] < 0 {
				rdist[state] = next
				queue = append(queue, state)
			}
		}
		if phase == 0 {
			// (u,0) -> (x,0) rides a provider edge: u is a customer of x.
			for _, u := range topo.CustomerIdx(x) {
				relax(int32(2 * u))
			}
		} else {
			// (u,0) -> (x,1) rides a peer or customer edge; (u,1) -> (x,1)
			// rides a customer edge.
			for _, u := range topo.PeerIdx(x) {
				relax(int32(2 * u))
			}
			for _, u := range topo.ProviderIdx(x) {
				relax(int32(2 * u))
				relax(int32(2*u + 1))
			}
		}
	}
	rem := rdist[2*s]
	if rem < 0 {
		return nil
	}

	// Greedy forward reconstruction: at each hop, every neighbor state
	// whose remaining distance is rem-1 lies on some shortest path;
	// taking the smallest ASN (preferring the climb phase on a tie —
	// its move set is a superset, so it can only improve the suffix)
	// yields the lexicographically smallest shortest path.
	path := make([]world.ASN, 0, rem+1)
	path = append(path, from)
	cur, phase := s, int32(0)
	for ; rem > 0; rem-- {
		bestNode, bestPhase := -1, int32(0)
		consider := func(node int, ph int32) {
			if rdist[2*node+int(ph)] != rem-1 {
				return
			}
			if bestNode < 0 || topo.ASNAt(node) < topo.ASNAt(bestNode) ||
				(node == bestNode && ph < bestPhase) {
				bestNode, bestPhase = node, ph
			}
		}
		if phase == 0 {
			for _, p := range topo.ProviderIdx(cur) {
				consider(p, 0)
			}
			for _, q := range topo.PeerIdx(cur) {
				consider(q, 1)
			}
		}
		for _, c := range topo.CustomerIdx(cur) {
			consider(c, 1)
		}
		if bestNode < 0 {
			return nil // unreachable given rdist; would be a BFS bug
		}
		path = append(path, topo.ASNAt(bestNode))
		cur, phase = bestNode, bestPhase
	}
	return path
}
