// Package bgp simulates the part of the global routing system the paper's
// pipeline consumes beyond prefix origination (each world AS's prefix
// list, CAIDA's prefix2as equivalent): the preferred AS paths observed by
// a set of BGP monitors (the RouteViews / RIPE RIS equivalent that CTI is
// computed from).
//
// Route selection follows the standard Gao-Rexford (valley-free) model:
// routes learned from customers are preferred over routes learned from
// peers, which beat routes learned from providers; ties break on shorter
// AS-path length and then on lower next-hop ASN. Export rules are the
// classic ones: customer-learned routes are exported to everyone;
// peer- and provider-learned routes are exported only to customers.
package bgp

import (
	"fmt"
	"slices"
	"sort"

	"stateowned/internal/rng"
	"stateowned/internal/sched"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// Monitor is one BGP vantage point: a collector session hosted inside an
// AS. Several monitors can live in the same AS (RouteViews and RIS both
// have this), which is why CTI weights monitors by 1/#monitors-in-AS.
type Monitor struct {
	ID string
	AS world.ASN
}

// SelectMonitors picks a deterministic, geographically spread monitor set:
// every tier-1-ish AS hosts one, plus gateway ASes sampled across RIRs.
// A few ASes host two monitors to exercise CTI's monitor weighting.
func SelectMonitors(w *world.World, g *topology.Graph, n int) []Monitor {
	r := rng.New(w.Seed).Sub("monitors")
	// Candidates: ASes with at least one customer (operational border
	// routers of transit networks are where collectors peer).
	type cand struct {
		asn  world.ASN
		deg  int
		name string
	}
	var cands []cand
	for _, asn := range g.ASes() {
		if d := len(g.Customers(asn)); d > 0 {
			cands = append(cands, cand{asn, d, ""})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].deg != cands[j].deg {
			return cands[i].deg > cands[j].deg
		}
		return cands[i].asn < cands[j].asn
	})
	if n <= 0 {
		n = 60
	}
	if n > len(cands) {
		n = len(cands)
	}
	// Top third by degree, the rest sampled from the remainder.
	var out []Monitor
	top := n / 3
	for i := 0; i < top; i++ {
		out = append(out, Monitor{AS: cands[i].asn})
	}
	rest := cands[top:]
	perm := r.Perm(len(rest))
	for i := 0; len(out) < n && i < len(perm); i++ {
		out = append(out, Monitor{AS: rest[perm[i]].asn})
	}
	// Duplicate the first few ASes to model multi-monitor hosts.
	dups := 3
	for i := 0; i < dups && i < len(out); i++ {
		out = append(out, Monitor{AS: out[i].AS})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AS < out[j].AS })
	for i := range out {
		out[i].ID = monitorID(i)
	}
	return out
}

// ApplyOutages filters the monitor set through an outage predicate —
// collector sessions that went dark contribute no paths. The surviving
// monitors keep their IDs so multi-monitor AS weighting stays correct,
// and the dark count feeds the run's health report.
func ApplyOutages(monitors []Monitor, down func(Monitor) bool) (up []Monitor, dark int) {
	up = make([]Monitor, 0, len(monitors))
	for _, m := range monitors {
		if down(m) {
			dark++
			continue
		}
		up = append(up, m)
	}
	return up, dark
}

// monitorID names monitor i as "rrc" plus its zero-padded decimal
// index: rrc00–rrc99, then rrc100 and up.
func monitorID(i int) string { return fmt.Sprintf("rrc%02d", i) }

// routeClass encodes Gao-Rexford preference; higher is better.
type routeClass int8

const (
	classNone     routeClass = 0
	classProvider routeClass = 1
	classPeer     routeClass = 2
	classCustomer routeClass = 3
)

type route struct {
	class routeClass
	dist  int32 // AS hops to origin
	next  int32 // dense index of next hop (-1 at origin)
}

// better reports whether route a is preferred over b: higher class,
// then shorter distance, then the lower next hop — the last only when
// b has one, so an origin route is never displaced on a tie.
func better(a, b route) bool {
	if a.class != b.class {
		return a.class > b.class
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.next < b.next && b.next >= 0
}

// Scratch is one worker's reusable propagation state: the route array
// a result lives in, the hijack overlay's route array, the lists of
// ASes the last run and the last overlay routed, and two BFS frontiers.
// Propagate resets and reuses them, so once a Scratch has seen the
// largest topology and the widest frontiers it will meet, the kernel
// allocates nothing. A Scratch belongs to one goroutine at a time; the
// zero value is ready to use.
type Scratch struct {
	routes []route
	hij    []route
	// touched and hijTouched list every AS the last run and the last
	// overlay routed, so the next resets only those.
	touched    []int
	hijTouched []int
	queue      []int
	next       []int
}

// resetRoutes returns rs resized to n entries, all classNone, and
// touched emptied with room for n entries (an AS is listed at most
// once). touched must list every entry of rs that is not classNone;
// when rs already has n entries, only those are cleared.
func resetRoutes(rs []route, touched []int, n int) ([]route, []int) {
	switch {
	case len(rs) == n:
		for _, i := range touched {
			rs[i] = route{}
		}
	case cap(rs) >= n:
		rs = rs[:n]
		clear(rs)
	default:
		rs = make([]route, n)
	}
	if cap(touched) < n {
		touched = make([]int, 0, n)
	}
	return rs, touched[:0]
}

// Propagate is the propagation kernel: it computes valley-free best
// routes toward one origin into s, replacing the previous result. It
// routes the origin's provider ancestry and the scope's ASes, exactly as
// a run over the whole graph routes them, and leaves every other AS
// without a route (see Scope); a scope listing every AS routes the whole
// graph. It reports false, leaving no result to read, when the origin
// is not in the graph.
//
// The visit order is part of the result. Within a BFS layer a later
// frontier entry reads the distance an earlier entry of the same layer
// lowered, and phase 3 seeds its frontier with every routed member in
// dense-index order; reordering either changes the routes some ASes
// keep, so both are load-bearing (TestKernelMatchesReference).
//
// Walking NextHop from any routed AS ends at the origin. Once an AS has
// a route, a phase replaces it only with a better route of the same
// class, so its distance never rises; and a route that takes a next hop
// is one hop longer than that hop's route was then. So distances fall
// strictly along next hops, down to the origin's 0.
func (s *Scratch) Propagate(g *topology.Graph, origin world.ASN, sc *Scope) bool {
	oIdx, ok := g.Index(origin)
	if !ok {
		return false
	}
	if sc.g != g {
		panic("bgp: scope built for another topology")
	}
	routes, touched := resetRoutes(s.routes, s.touched, g.NumASes())
	routes[oIdx] = route{class: classCustomer, dist: 0, next: -1}
	touched = append(touched, oIdx)

	// Phase 1: customer routes climb provider edges (BFS by distance)
	// through the origin's whole provider ancestry, in scope or not.
	queue, next := append(s.queue[:0], oIdx), s.next
	for len(queue) > 0 {
		next = next[:0]
		for _, cur := range queue {
			for _, p := range g.ProviderIdx(cur) {
				cand := route{class: classCustomer, dist: routes[cur].dist + 1, next: int32(cur)}
				if routes[p].class == classNone || better(cand, routes[p]) {
					if routes[p].class == classNone {
						next = append(next, p)
						touched = append(touched, p)
					}
					routes[p] = cand
				}
			}
		}
		queue, next = next, queue
	}

	// Phase 2: one peer hop from any AS holding a customer route — the
	// ancestry phase 1 just listed. An AS without a customer route takes
	// the best offer; better orders peer routes by (dist, next), so the
	// order offers arrive in cannot change which one wins.
	climbed := len(touched)
	for _, i := range touched[:climbed] {
		for _, p := range sc.peers[i] {
			if routes[p].class == classCustomer {
				continue
			}
			cand := route{class: classPeer, dist: routes[i].dist + 1, next: int32(i)}
			if routes[p].class == classNone {
				routes[p] = cand
				touched = append(touched, p)
			} else if better(cand, routes[p]) {
				routes[p] = cand
			}
		}
	}

	// Phase 3: provider routes descend customer edges, BFS by distance
	// from every routed AS in scope.
	queue = queue[:0]
	for _, i := range sc.members {
		if routes[i].class != classNone {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		next = next[:0]
		for _, cur := range queue {
			for _, c := range sc.customers[cur] {
				cand := route{class: classProvider, dist: routes[cur].dist + 1, next: int32(cur)}
				if routes[c].class == classNone {
					routes[c] = cand
					next = append(next, c)
				} else if routes[c].class == classProvider && better(cand, routes[c]) {
					routes[c] = cand
					// Distance improvements do not re-propagate in this
					// BFS-by-layers scheme; layering guarantees minimal
					// distances within the provider class.
				}
			}
		}
		queue, next = next, queue
	}
	// Phase 3 routed exactly the members holding provider routes.
	for _, i := range sc.members {
		if routes[i].class == classProvider {
			touched = append(touched, i)
		}
	}
	s.routes, s.touched, s.queue, s.next = routes, touched, queue, next
	return true
}

// Scope is the part of a topology that monitor paths read routes from:
// the ASes hosting the monitors plus every transitive provider of
// theirs, with each AS's peers and each member's customers filtered to
// the scope in their original order. Propagate computes, for every
// member, the route a run over the whole graph computes, and so every
// monitor's path:
//
//   - A monitor path climbs provider routes, each of whose next hops is
//     a provider of the AS holding it, which stays in scope because the
//     scope is closed under providers. It crosses at most one peer, into
//     the origin's provider ancestry, and then descends customer routes,
//     whose next hops are customers within the ancestry. Phase 1 climbs
//     the whole ancestry whatever the scope, so every route a monitor
//     path reads is a member's route or one phase 1 computed in full.
//   - Phase 2 gives an AS without a customer route the best of its
//     peers' offers, and each AS holding a customer route offers to
//     every peer. Filtering the offers to members leaves each member
//     the same candidates, and the best of a set does not depend on
//     the order it is scanned in.
//   - In phase 3 a member's route is set only by its providers, all of
//     them members, so only members can route a member or lower its
//     distance. The scoped run seeds the routed members in dense-index
//     order and scans each member's customers in their original order,
//     so each of its frontiers is the whole-graph run's frontier with
//     every non-member removed: it visits the members in the same
//     relative order, and each member reads the distance it reads in
//     the whole-graph run, including one an earlier entry of its own
//     layer lowered.
//
// TestScopedKernelMatchesReference checks the rule against the
// reference propagation for every origin of the kernel worlds and of a
// hand-shaped topology. An AS outside both the scope and the origin's
// ancestry has no route after a scoped run, even where the whole graph
// gives it one. CTI's collector, campaign overlays included
// (propagateHijack), and the graph's transit-dependency phase read
// nothing but monitor paths, so they pass the monitors' scope; a caller
// that reads every AS's route passes the scope of every AS (allScope),
// in which every AS is a member and every filtered list is the graph's
// own, so the run is the whole graph's.
type Scope struct {
	g         *topology.Graph
	members   []int   // ascending dense indices
	peers     [][]int // peers[i]: i's peers in the scope, any i
	customers [][]int // customers[i]: member i's customers in the scope
}

// NewScope returns the monitor scope of g for the monitors at dense
// indices mon (MonitorIndices; a monitor outside g adds nothing).
func NewScope(g *topology.Graph, mon []int) *Scope {
	n := g.NumASes()
	in := make([]bool, n)
	var members []int
	for _, i := range mon {
		if i >= 0 && !in[i] {
			in[i] = true
			members = append(members, i)
		}
	}
	for k := 0; k < len(members); k++ {
		for _, p := range g.ProviderIdx(members[k]) {
			if !in[p] {
				in[p] = true
				members = append(members, p)
			}
		}
	}
	slices.Sort(members)
	sc := &Scope{g: g, members: members, peers: make([][]int, n), customers: make([][]int, n)}
	for i := 0; i < n; i++ {
		sc.peers[i] = filterIdx(g.PeerIdx(i), in)
	}
	for _, i := range members {
		sc.customers[i] = filterIdx(g.CustomerIdx(i), in)
	}
	return sc
}

// filterIdx returns the entries of idxs marked in in, in their order,
// or nil when there are none.
func filterIdx(idxs []int, in []bool) []int {
	var out []int
	for _, j := range idxs {
		if in[j] {
			out = append(out, j)
		}
	}
	return out
}

// StubProvider reports whether dense index i of g is a single-homed
// stub — exactly one provider, no peers, no customers — and returns
// that provider's dense index. A stub's routes are its provider's
// routes with every distance one longer, the provider's next hop set
// to the stub, and the stub as the origin. So every path toward the
// stub is the path toward its provider with the stub appended, except
// the one-hop path [stub] from the stub itself, and a caller holding
// the provider's propagation needs no run of its own for the stub (the
// graph's dependency phase observes each stub this way).
// Propagate(stub) computes exactly those routes:
//
//   - Phase 1 from the stub reaches only its provider, at distance 1.
//     It then runs the provider's own climb one layer later, frontier
//     for frontier, so every customer route is the provider's route one
//     hop longer. The stub is no AS's provider, so the climb never
//     returns to it.
//   - Phase 2 adds nothing at the stub, which has no peers, and phase 3
//     adds nothing through it, seeded or not: it has no customers.
//   - Adding 1 to every distance preserves every comparison better
//     makes. Its next-hop guard (b.next >= 0) only protects an origin,
//     and no candidate can reach the provider at distance 1 except from
//     the stub, the one AS at distance 0.
//
// TestStubProviderMatchesReference checks the rule against the
// reference propagation for every stub of the kernel worlds. A
// multi-homed stub has no such shortcut: no one provider's routes are
// its routes.
func StubProvider(g *topology.Graph, i int) (provider int, ok bool) {
	if ps := g.ProviderIdx(i); len(ps) == 1 && len(g.PeerIdx(i)) == 0 && len(g.CustomerIdx(i)) == 0 {
		return ps[0], true
	}
	return -1, false
}

// Routed reports whether dense index i has a route toward the origin of
// the last Propagate.
func (s *Scratch) Routed(i int) bool { return s.routes[i].class != classNone }

// NextHop returns the dense index of i's next hop toward the origin of
// the last Propagate, or -1 at the origin itself. i must be Routed.
// Following NextHop from a routed AS reaches the origin (Propagate).
func (s *Scratch) NextHop(i int) int { return int(s.routes[i].next) }

// pathLen counts the ASes on i's route to the origin, both ends
// inclusive: 0 when i has no route, and 0 when the walk outgrows the
// graph (a cycle would be a propagation bug; the path is then nil).
func pathLen(routes []route, i int) int {
	if routes[i].class == classNone {
		return 0
	}
	n := 1
	for nxt := routes[i].next; nxt >= 0; nxt = routes[nxt].next {
		if n++; n > len(routes) {
			return 0
		}
	}
	return n
}

// appendPath appends i's AS path to the origin (i first, the origin
// last) to dst, growing it once; dst is returned unchanged when i has
// no path.
func appendPath(dst []world.ASN, g *topology.Graph, routes []route, i int) []world.ASN {
	n := pathLen(routes, i)
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	for {
		dst = append(dst, g.ASNAt(i))
		nxt := routes[i].next
		if nxt < 0 {
			return dst
		}
		i = int(nxt)
	}
}

// PathView holds, for one origin AS, the best route state of every AS in
// the graph; monitor paths are reconstructed from it.
type PathView struct {
	g      *topology.Graph
	origin world.ASN
	routes []route
}

// Propagate computes valley-free best routes toward one origin for every
// AS in the graph. It runs the kernel on a fresh Scratch within the
// scope of every AS, and the returned view owns the route array; loops
// over many origins should reuse one Scratch per worker and one scope
// instead.
func Propagate(g *topology.Graph, origin world.ASN) *PathView {
	var s Scratch
	if !s.Propagate(g, origin, allScope(g)) {
		return nil
	}
	return &PathView{g: g, origin: origin, routes: s.routes}
}

// allScope returns the scope of every AS of g, within which the kernel
// routes the whole graph.
func allScope(g *topology.Graph) *Scope {
	all := make([]int, g.NumASes())
	for i := range all {
		all[i] = i
	}
	return NewScope(g, all)
}

// Path returns the AS path from the given AS to the origin (inclusive on
// both ends), or nil if unreachable.
func (v *PathView) Path(from world.ASN) []world.ASN {
	i, ok := v.g.Index(from)
	if !ok {
		return nil
	}
	return appendPath(nil, v.g, v.routes, i)
}

// MonitorPaths is the collected RIB view: for each origin, the path
// each monitor prefers toward it.
type MonitorPaths struct {
	Monitors []Monitor
	// rows[origin][mi] = monitor mi's AS path toward origin (monitor AS
	// first, origin last); an origin no monitor reaches has no row.
	rows map[world.ASN][][]world.ASN
}

// CollectPaths propagates each origin and records the monitors' preferred
// paths. Origins outside the graph are skipped.
//
// Per-origin propagations are independent, so they run on
// sched.ParallelFor with the given worker count (<= 0 selects
// GOMAXPROCS, 1 is fully serial — the pipeline's Workers knob plumbs
// through here so a serial run really is serial), one kernel Scratch
// per worker.
func CollectPaths(g *topology.Graph, monitors []Monitor, origins []world.ASN, workers int) *MonitorPaths {
	return collect(g, monitors, origins, workers, nil, nil)
}

// MonitorIndices maps each monitor to its AS's dense index in g, or -1
// for a monitor outside g (which observes no paths). Monitors sharing
// an AS each keep their entry.
func MonitorIndices(g *topology.Graph, monitors []Monitor) []int {
	mon := make([]int, len(monitors))
	for mi, m := range monitors {
		if i, ok := g.Index(m.AS); ok {
			mon[mi] = i
		} else {
			mon[mi] = -1
		}
	}
	return mon
}

// collect is the one path collector behind CollectPaths and
// CollectPathsAdversary. It runs the kernel once per origin, within the
// monitors' Scope, since a row reads nothing but monitor paths. Each
// origin's row — every monitor's observed path toward it, carved from
// one exact-size backing array — is owned by one origin index, so the
// result is identical for every worker count. A campaign against an
// origin is a per-origin overlay on the honest routes the kernel just
// computed, which the scoped run leaves exact where a row reads them
// (propagateHijack).
func collect(g *topology.Graph, monitors []Monitor, origins []world.ASN, workers int, byVictim map[world.ASN]Campaign, rov map[world.ASN]bool) *MonitorPaths {
	mon := MonitorIndices(g, monitors)
	// in[oi] reports whether origin oi is in g. Resolving the origins on
	// the pool keeps g's first use on a worker, where a panic reaches the
	// caller as a *sched.PanicError.
	in := make([]bool, len(origins))
	sched.ParallelFor(workers, len(origins), func(_, oi int) { in[oi] = g.Active(origins[oi]) })

	// Built after the pass above, which is g's first use.
	scope := NewScope(g, mon)
	rows := make([][][]world.ASN, len(origins))
	scratch := make([]Scratch, sched.Workers(workers))
	sched.ParallelFor(workers, len(origins), func(w, oi int) {
		if !in[oi] {
			return
		}
		s := &scratch[w]
		s.Propagate(g, origins[oi], scope)
		var camp *Campaign
		if c, attacked := byVictim[origins[oi]]; attacked && s.propagateHijack(g, c, rov, scope) {
			camp = &c
		}
		rows[oi] = s.row(g, mon, camp)
	})

	mp := &MonitorPaths{Monitors: monitors, rows: make(map[world.ASN][][]world.ASN, len(origins))}
	for oi, row := range rows {
		if row != nil {
			mp.rows[origins[oi]] = row
		}
	}
	return mp
}

// row carves one origin's row from the routes s holds — monitor mi's
// observed path at row[mi], all of them in one exact-size backing
// array — or returns nil when no monitor observes a path. camp is as
// for appendObserved.
func (s *Scratch) row(g *topology.Graph, mon []int, camp *Campaign) [][]world.ASN {
	size := 0
	for _, i := range mon {
		size += s.observedLen(i, camp)
	}
	if size == 0 {
		return nil
	}
	buf := make([]world.ASN, 0, size)
	row := make([][]world.ASN, len(mon))
	for mi, i := range mon {
		start := len(buf)
		if buf = s.appendObserved(buf, g, i, camp); len(buf) > start {
			row[mi] = buf[start:len(buf):len(buf)]
		}
	}
	return row
}

// Path returns monitor mi's preferred path to origin (nil if none).
func (mp *MonitorPaths) Path(mi int, origin world.ASN) []world.ASN {
	if row := mp.rows[origin]; row != nil {
		return row[mi]
	}
	return nil
}

// Row returns every monitor's preferred path toward origin, indexed
// like Monitors (nil where a monitor has none), or nil when no monitor
// has one. The row is shared: callers must not modify it.
func (mp *MonitorPaths) Row(origin world.ASN) [][]world.ASN { return mp.rows[origin] }

// ReplayPaths builds a MonitorPaths from externally supplied paths — one
// map per monitor, keyed by origin, each path running monitor-AS first
// and origin last. It serves replay tooling and golden tests that need a
// RIB view not produced by the simulator.
func ReplayPaths(monitors []Monitor, paths []map[world.ASN][]world.ASN) *MonitorPaths {
	if len(monitors) != len(paths) {
		panic("bgp: monitors and path maps must align")
	}
	rows := make(map[world.ASN][][]world.ASN)
	for mi, m := range paths {
		for origin, p := range m {
			if rows[origin] == nil {
				rows[origin] = make([][]world.ASN, len(monitors))
			}
			rows[origin][mi] = p
		}
	}
	return &MonitorPaths{Monitors: monitors, rows: rows}
}

// MonitorsInAS counts monitors hosted per AS (CTI's w(m) denominator).
func (mp *MonitorPaths) MonitorsInAS() map[world.ASN]int {
	out := make(map[world.ASN]int)
	for _, m := range mp.Monitors {
		out[m.AS]++
	}
	return out
}
