// Package graph compiles the relationship query plane: an immutable,
// per-generation index over the AS topology answering the questions
// operators actually ask of an Internet map — who are X's providers,
// customers, peers and siblings; what is X's customer cone; which
// transits does the world depend on to reach X; what is the shortest
// valley-free route between two ASes.
//
// Everything except the path oracle is precomputed at build time, so a
// query is O(result). Each relationship class, the transitive
// customer-cone closure and the hegemony-style transit-dependency
// rankings (how many observed monitor paths toward an AS traverse each
// transit, derived from the same per-origin valley-free propagation
// CTI consumes) is one flat array with per-AS offsets: no per-AS
// allocation, nothing for the collector to mark but a few arrays. A
// ranking entry holds only the transit and its path count; Upstreams
// computes each Score when it is read. The path oracle runs a
// two-phase BFS over the dense topology per query, on scratch borrowed
// from a per-graph pool — still independent of the dataset layer, and
// the only query whose cost scales with the graph.
//
// Build rides internal/sched.ParallelFor: provider, customer and peer
// lists have the topology's lengths, so their offsets are a serial
// prefix sum and each iteration fills its own ranges; sibling lists,
// cone closure and dependency ranking fan out per-AS into their
// worker's arena, each iteration writing only slots no other iteration
// writes (its own, plus its single-homed stub customers' in the
// dependency phase) and borrowing its worker's scratch, which starts
// every iteration reset, and a serial pass packs the arenas in index
// order. So the compiled graph is bit-identical for every worker count
// — the differential suite enforces this along with deep equality
// against naive on-demand traversals of the raw topology.
package graph

import (
	"slices"
	"strings"
	"sync"

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
// every accessor but Upstreams and Path returns interior slices that
// callers must not mutate.
type Graph struct {
	topo *topology.Graph

	// adj[class] holds every AS's sorted adjacency in that class, and
	// cones every AS's sorted transitive customer cone, self included
	// (ASRank semantics, matching topology.CustomerCone).
	adj   [numClasses]flat[world.ASN]
	cones flat[world.ASN]
	// deps holds every AS's ranking of the transits the monitor paths
	// toward it traverse, paths descending then ASN ascending;
	// observed[i] counts the monitor paths that reached i (the score
	// denominator).
	deps     flat[rank]
	observed []uint32

	monitors int

	// paths lends Path its per-call scratch (pathScratch).
	paths sync.Pool
}

// flat is one list per AS in one array: dense index i's list is
// list[off[i]:off[i+1]].
type flat[T any] struct {
	list []T
	off  []uint32
}

// span returns i's range of the array, for the builder to fill.
func (f *flat[T]) span(i int) []T { return f.list[f.off[i]:f.off[i+1]] }

// at returns i's list capacity-capped, so a caller's append can never
// overwrite the next AS's entries, or nil when the list is empty.
func (f *flat[T]) at(i int) []T {
	lo, hi := f.off[i], f.off[i+1]
	if lo == hi {
		return nil
	}
	return f.list[lo:hi:hi]
}

// rank is one dependency-ranking entry: a transit and how many of the
// monitor paths toward the ranked AS traverse it, packed into one
// integer — the count's complement above the ASN — so that ranks in
// ascending integer order are in ranking order, paths descending then
// ASN ascending.
type rank uint64

func newRank(transit world.ASN, paths uint32) rank {
	return rank(uint64(^paths)<<32 | uint64(transit))
}

func (r rank) transit() world.ASN { return world.ASN(uint32(r)) }

func (r rank) paths() uint32 { return ^uint32(r >> 32) }

// arenaSpan locates one AS's list in the arena of the worker that built
// it, between the per-AS fan-out and the serial pack.
type arenaSpan struct {
	w      int32
	lo, hi uint32
}

// pack lays the arena spans out as one flat family in index order, so
// the result does not depend on which worker built which list.
func pack[T any](spans []arenaSpan, arena func(w int32) []T) flat[T] {
	n := len(spans)
	f := flat[T]{off: make([]uint32, n+1)}
	for i, sp := range spans {
		f.off[i+1] = f.off[i] + sp.hi - sp.lo
	}
	f.list = make([]T, f.off[n])
	for i, sp := range spans {
		copy(f.span(i), arena(sp.w)[sp.lo:sp.hi])
	}
	return f
}

// Build compiles the relationship index over a topology snapshot, the
// BGP monitor set the dependency scores are observed from, and the
// AS2Org mapping supplying sibling structure (nil = no sibling data).
// workers bounds the internal fan-out exactly as the pipeline's Workers
// knob does (<= 0 selects GOMAXPROCS; the result is identical for every
// worker count). The number of allocations does not grow with the AS
// count.
func Build(topo *topology.Graph, monitors []bgp.Monitor, orgs *as2org.Mapping, workers int) *Graph {
	n := topo.NumASes()
	g := &Graph{
		topo:     topo,
		observed: make([]uint32, n),
		monitors: len(monitors),
	}
	g.paths.New = func() any { return newPathScratch(n) }

	// Every phase gives each pool worker one scratch, reused across
	// every AS that worker takes, with arenas the worker appends the
	// lists to whose length is known only once computed; spans records
	// where each AS's list landed.
	scratch := make([]buildScratch, sched.Workers(workers))
	spans := make([]arenaSpan, n)

	// Phase 1: classed adjacency, one sorted ASN list per (AS, class).
	// Provider, customer and peer lists have their topology lists'
	// lengths, so their offsets are a serial prefix sum and each
	// iteration fills and sorts its own ranges; sibling lists go
	// through the arenas.
	for c, idx := range [...]func(int) []int{Provider: topo.ProviderIdx, Customer: topo.CustomerIdx, Peer: topo.PeerIdx} {
		off := make([]uint32, n+1)
		for i := 0; i < n; i++ {
			off[i+1] = off[i] + uint32(len(idx(i)))
		}
		g.adj[c] = flat[world.ASN]{list: make([]world.ASN, off[n]), off: off}
	}
	sched.ParallelFor(workers, n, func(w, i int) {
		fillASNs(topo, g.adj[Provider].span(i), topo.ProviderIdx(i))
		fillASNs(topo, g.adj[Customer].span(i), topo.CustomerIdx(i))
		fillASNs(topo, g.adj[Peer].span(i), topo.PeerIdx(i))
		spans[i] = scratch[w].siblingsOf(topo, orgs, i, int32(w))
	})
	g.adj[Sibling] = pack(spans, func(w int32) []world.ASN { return scratch[w].asns })

	// Phase 2: customer-cone closure. Each iteration BFSes the dense
	// customer edges and records only its own span.
	for w := range scratch {
		scratch[w].asns = scratch[w].asns[:0]
	}
	sched.ParallelFor(workers, n, func(w, i int) {
		spans[i] = scratch[w].coneOf(topo, i, int32(w))
	})
	g.cones = pack(spans, func(w int32) []world.ASN { return scratch[w].asns })

	// Phase 3: transit-dependency rankings. One valley-free propagation
	// per non-stub AS (the same kernel CTI's path collection runs),
	// within the monitors' bgp.Scope, since only monitor paths are read;
	// every monitor path toward origin i credits its transit hops. A
	// single-homed stub (bgp.StubProvider) is observed from its
	// provider's routes in the provider's iteration, which writes the
	// stub's slots too: a stub has one provider, so each slot still has
	// exactly one writer.
	clear(spans)
	mon := bgp.MonitorIndices(topo, monitors)
	scope := bgp.NewScope(topo, mon)
	sched.ParallelFor(workers, n, func(w, i int) {
		if _, stub := bgp.StubProvider(topo, i); stub {
			return
		}
		s := &scratch[w]
		s.prop.Propagate(topo, topo.ASNAt(i), scope)
		g.observed[i] = s.observe(topo, mon, i)
		spans[i] = s.ranking(topo, int32(w))
		for _, c := range topo.CustomerIdx(i) {
			if _, stub := bgp.StubProvider(topo, c); stub {
				g.observed[c] = s.observe(topo, mon, c)
				spans[c] = s.ranking(topo, int32(w))
			}
		}
	})
	g.deps = pack(spans, func(w int32) []rank { return scratch[w].ranks })

	return g
}

// buildScratch is one worker's reusable build state: the cone BFS's
// seen set and queue, the propagation kernel's scratch, a dense per-AS
// transit counter that is reset through the list of indices it
// touched, and the arenas the worker's sibling lists, then its cones,
// and its rankings are appended to until Build packs them. Between
// iterations seen is all false and counts all zero.
type buildScratch struct {
	seen    []bool
	queue   []int
	prop    bgp.Scratch
	counts  []uint32
	touched []int32
	asns    []world.ASN
	ranks   []rank
}

// fillASNs writes the ASNs of dense indices idxs into dst, sorted
// ascending; dst has len(idxs) entries.
func fillASNs(topo *topology.Graph, dst []world.ASN, idxs []int) {
	for k, j := range idxs {
		dst[k] = topo.ASNAt(j)
	}
	slices.Sort(dst)
}

// siblingsOf appends the ASNs registered under the inferred
// organization of dense index i's AS, other than itself, that are in
// the snapshot, sorted, to the worker's ASN arena and returns their
// span there. It reads the organization's ASN list in place.
func (s *buildScratch) siblingsOf(topo *topology.Graph, orgs *as2org.Mapping, i int, w int32) arenaSpan {
	lo := len(s.asns)
	if orgs != nil {
		a := topo.ASNAt(i)
		if org, ok := orgs.OrgOf(a); ok {
			s.asns = reserve(s.asns, len(org.ASNs))
			for _, x := range org.ASNs {
				if x != a && topo.Active(x) {
					s.asns = append(s.asns, x)
				}
			}
			slices.Sort(s.asns[lo:])
		}
	}
	return arenaSpan{w: w, lo: uint32(lo), hi: uint32(len(s.asns))}
}

// coneOf BFSes the customer edges from i, appends the sorted cone, self
// included, to the worker's ASN arena and returns its span there.
func (s *buildScratch) coneOf(topo *topology.Graph, i int, w int32) arenaSpan {
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
	s.asns = reserve(s.asns, len(queue))
	lo := len(s.asns)
	for _, j := range queue {
		s.asns = append(s.asns, topo.ASNAt(j))
		s.seen[j] = false
	}
	s.queue = queue
	slices.Sort(s.asns[lo:])
	return arenaSpan{w: w, lo: uint32(lo), hi: uint32(len(s.asns))}
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
func (s *buildScratch) observe(topo *topology.Graph, mon []int, o int) (total uint32) {
	if len(s.counts) < topo.NumASes() {
		s.counts = make([]uint32, topo.NumASes())
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

// ranking appends the dependency ranking of the origin observe counted
// — paths descending, ASN ascending — to the worker's rank arena,
// resets the counter for the next origin, and returns the ranking's
// span there; the span is empty when no monitor path had a transit
// hop.
func (s *buildScratch) ranking(topo *topology.Graph, w int32) arenaSpan {
	s.ranks = reserve(s.ranks, len(s.touched))
	lo := len(s.ranks)
	for _, t := range s.touched {
		s.ranks = append(s.ranks, newRank(topo.ASNAt(int(t)), s.counts[t]))
	}
	s.resetCounts()
	slices.Sort(s.ranks[lo:])
	return arenaSpan{w: w, lo: uint32(lo), hi: uint32(len(s.ranks))}
}

// reserve makes room for k more entries at the end of an arena,
// doubling it when full: append grows a large slice by about a quarter
// at a time, which would allocate several times the arena's final size
// over a build.
func reserve[T any](arena []T, k int) []T {
	if cap(arena)-len(arena) >= k {
		return arena
	}
	return slices.Grow(arena, max(k, len(arena)))
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
	return g.adj[c].at(i), true
}

// Cone returns a's transitive customer cone (sorted, self included), or
// nil when the ASN is not in the snapshot.
func (g *Graph) Cone(a world.ASN) []world.ASN {
	i, ok := g.topo.Index(a)
	if !ok {
		return nil
	}
	return g.cones.at(i)
}

// ConeSize returns |Cone(a)| without touching the members; 0 when the
// ASN is not in the snapshot.
func (g *Graph) ConeSize(a world.ASN) int {
	i, ok := g.topo.Index(a)
	if !ok {
		return 0
	}
	return int(g.cones.off[i+1] - g.cones.off[i])
}

// Upstreams returns the transits the observed monitor paths toward a
// depend on, ranked by Score descending (ties on ASN ascending); ok is
// false when the ASN is not in the snapshot. The slice is built per
// call, each Score the transit's path count over PathsObserved(a); it
// is nil when no monitor path toward a has a transit hop.
func (g *Graph) Upstreams(a world.ASN) (deps []Dependency, ok bool) {
	i, ok := g.topo.Index(a)
	if !ok {
		return nil, false
	}
	rs := g.deps.at(i)
	if rs == nil {
		return nil, true
	}
	deps = make([]Dependency, len(rs))
	for k, r := range rs {
		deps[k] = Dependency{Transit: r.transit(), Score: float64(r.paths()) / float64(g.observed[i]), Paths: int(r.paths())}
	}
	return deps, true
}

// PathsObserved reports how many monitor paths reached a — the
// denominator of its dependency scores.
func (g *Graph) PathsObserved(a world.ASN) int {
	i, ok := g.topo.Index(a)
	if !ok {
		return 0
	}
	return int(g.observed[i])
}

// pathScratch is one Path call's state over the 2n (AS, phase) states:
// rdist holds each state's remaining distance to the destination, -1
// where unlabelled, and queue the states the backward BFS labelled, in
// order. Between calls every rdist entry is -1 and queue is empty.
type pathScratch struct {
	rdist []int32
	queue []int32
}

func newPathScratch(n int) *pathScratch {
	rdist := make([]int32, 2*n)
	for i := range rdist {
		rdist[i] = -1
	}
	return &pathScratch{rdist: rdist}
}

// label gives state st remaining distance d and queues it, unless it
// is labelled already.
func (ps *pathScratch) label(st, d int32) {
	if ps.rdist[st] < 0 {
		ps.rdist[st] = d
		ps.queue = append(ps.queue, st)
	}
}

// release resets ps through its queue, which holds every state a call
// labelled, and returns it to g's pool.
func (g *Graph) release(ps *pathScratch) {
	for _, st := range ps.queue {
		ps.rdist[st] = -1
	}
	ps.queue = ps.queue[:0]
	g.paths.Put(ps)
}

// Path returns the shortest valley-free AS path from one AS to another
// (inclusive on both ends), deterministically tie-broken to the
// lexicographically smallest ASN sequence among the shortest. It
// returns nil when either endpoint is not in the snapshot or no
// valley-free route exists. The oracle is the one graph query that
// computes per call: a two-phase BFS (climbing, then descending after
// the first peer or customer edge — the Gao-Rexford export rule as a
// two-state automaton) over the dense topology, on scratch borrowed
// from the graph's pool, so the returned path is its one allocation.
//
// The backward BFS stops once the source's climb state is labelled,
// with remaining distance D. A FIFO BFS labels states in nondecreasing
// distance, and that state was labelled while a state at distance D-1
// was expanded, after every state at distance D-2 was: so every state
// at distance D-1 or less is labelled, with its exact distance, and any
// state still unlabelled is at distance D or more. The forward
// reconstruction only asks whether a state's distance equals rem-1 for
// rem <= D, which those labels answer exactly.
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
	ps := g.paths.Get().(*pathScratch)
	defer g.release(ps)
	rdist := ps.rdist

	// Backward BFS from the destination (either phase counts as
	// arrival), computing each state's remaining distance. State
	// encoding: 2*i for "climb allowed", 2*i+1 for "descend only".
	src := int32(2 * s)
	ps.label(int32(2*d), 0)
	ps.label(int32(2*d+1), 0)
	for head := 0; head < len(ps.queue) && rdist[src] < 0; head++ {
		st := ps.queue[head]
		x, next := int(st>>1), rdist[st]+1
		if st&1 == 0 {
			// (u,0) -> (x,0) rides a provider edge: u is a customer of x.
			for _, u := range topo.CustomerIdx(x) {
				ps.label(int32(2*u), next)
			}
		} else {
			// (u,0) -> (x,1) rides a peer or customer edge; (u,1) -> (x,1)
			// rides a customer edge.
			for _, u := range topo.PeerIdx(x) {
				ps.label(int32(2*u), next)
			}
			for _, u := range topo.ProviderIdx(x) {
				ps.label(int32(2*u), next)
				ps.label(int32(2*u+1), next)
			}
		}
	}
	rem := rdist[src]
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
