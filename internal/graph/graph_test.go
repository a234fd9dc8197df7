package graph

import (
	"reflect"
	"sync"
	"testing"

	"stateowned/internal/as2org"
	"stateowned/internal/bgp"
	"stateowned/internal/topology"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// diffSeeds are the worlds the differential suite cross-checks. -short
// keeps one seed: the naive re-derivations (a serial propagation sweep
// per seed) dominate the suite's runtime.
var diffSeeds = []uint64{7, 21, 42}

const diffScale = 0.05

// substrate builds the raw inputs the compiled graph is checked
// against: the topology, the monitor set, and the sibling mapping.
func substrate(seed uint64) (*topology.Graph, []bgp.Monitor, *as2org.Mapping) {
	w := world.Generate(world.Config{Seed: seed, Scale: diffScale})
	topo := topology.Build(w, topology.FinalYear)
	monitors := bgp.SelectMonitors(w, topo, 0)
	orgs := as2org.Infer(whois.Build(w))
	return topo, monitors, orgs
}

func seedsUnderTest(t *testing.T) []uint64 {
	if testing.Short() {
		return diffSeeds[len(diffSeeds)-1:]
	}
	return diffSeeds
}

// sortedCopy sorts a fresh copy (the naive accessors return adjacency
// order; the compiled graph promises ascending).
func sortedCopy(asns []world.ASN) []world.ASN {
	out := append([]world.ASN(nil), asns...)
	world.SortASNs(out)
	return out
}

// TestGraphDifferentialAdjacencyAndCones checks every precomputed
// adjacency list and cone closure against a naive on-demand derivation
// from the raw topology.
func TestGraphDifferentialAdjacencyAndCones(t *testing.T) {
	for _, seed := range seedsUnderTest(t) {
		topo, monitors, orgs := substrate(seed)
		g := Build(topo, monitors, orgs, 1)
		for i := 0; i < topo.NumASes(); i++ {
			a := topo.ASNAt(i)
			naive := map[Class][]world.ASN{
				Provider: sortedCopy(topo.Providers(a)),
				Customer: sortedCopy(topo.Customers(a)),
				Peer:     sortedCopy(topo.Peers(a)),
			}
			var sibs []world.ASN
			for _, s := range orgs.Siblings(a) {
				if topo.Active(s) {
					sibs = append(sibs, s)
				}
			}
			naive[Sibling] = sortedCopy(sibs)
			for _, c := range Classes() {
				got, ok := g.Neighbors(a, c)
				if !ok {
					t.Fatalf("seed %d: Neighbors(%d, %s) not ok for an active AS", seed, a, c)
				}
				if !reflect.DeepEqual(got, naive[c]) {
					t.Fatalf("seed %d: AS%d %s adjacency mismatch:\n got %v\nwant %v", seed, a, c, got, naive[c])
				}
			}
			wantCone := topo.CustomerCone(a)
			if got := g.Cone(a); !reflect.DeepEqual(got, wantCone) {
				t.Fatalf("seed %d: AS%d cone mismatch:\n got %v\nwant %v", seed, a, got, wantCone)
			}
			if got := g.ConeSize(a); got != len(wantCone) {
				t.Fatalf("seed %d: AS%d ConeSize = %d, want %d", seed, a, got, len(wantCone))
			}
		}
	}
}

// TestGraphDifferentialDependencies re-derives every AS's transit
// dependency ranking from a fresh on-demand propagation and checks deep
// equality — including the float scores, which must be the exact same
// quotients. It runs on the selected monitors and again with one more
// monitor inside a single-homed stub, which SelectMonitors never picks
// and which observes the one-hop path toward that stub.
func TestGraphDifferentialDependencies(t *testing.T) {
	for _, seed := range seedsUnderTest(t) {
		topo, selected, orgs := substrate(seed)
		stub := -1
		for i := 0; i < topo.NumASes() && stub < 0; i++ {
			if _, ok := bgp.StubProvider(topo, i); ok {
				stub = i
			}
		}
		if stub < 0 {
			t.Fatalf("seed %d: no single-homed stub to host a monitor", seed)
		}
		withStub := append(selected[:len(selected):len(selected)], bgp.Monitor{ID: "in-stub", AS: topo.ASNAt(stub)})
		for _, monitors := range [][]bgp.Monitor{selected, withStub} {
			g := Build(topo, monitors, orgs, 1)
			checkDependencies(t, seed, topo, monitors, g)
		}
	}
}

// checkDependencies compares g's dependency rankings with naive counts
// over bgp.Propagate paths from the given monitors.
func checkDependencies(t *testing.T, seed uint64, topo *topology.Graph, monitors []bgp.Monitor, g *Graph) {
	t.Helper()
	for i := 0; i < topo.NumASes(); i++ {
		a := topo.ASNAt(i)
		counts := map[world.ASN]int{}
		total := 0
		view := bgp.Propagate(topo, a)
		if view != nil {
			for _, m := range monitors {
				p := view.Path(m.AS)
				if p == nil {
					continue
				}
				total++
				for k := 1; k < len(p)-1; k++ {
					counts[p[k]]++
				}
			}
		}
		if got := g.PathsObserved(a); got != total {
			t.Fatalf("seed %d: AS%d PathsObserved = %d, want %d", seed, a, got, total)
		}
		got, ok := g.Upstreams(a)
		if !ok {
			t.Fatalf("seed %d: Upstreams(%d) not ok for an active AS", seed, a)
		}
		if len(got) != len(counts) {
			t.Fatalf("seed %d: AS%d has %d upstreams, want %d", seed, a, len(got), len(counts))
		}
		// The compiled ranking is Score descending, ASN ascending on
		// ties; verify order and content against the naive counts.
		for k, d := range got {
			if counts[d.Transit] != d.Paths {
				t.Fatalf("seed %d: AS%d transit %d has %d paths, want %d", seed, a, d.Transit, d.Paths, counts[d.Transit])
			}
			if d.Score != float64(d.Paths)/float64(total) {
				t.Fatalf("seed %d: AS%d transit %d score %v != %d/%d", seed, a, d.Transit, d.Score, d.Paths, total)
			}
			if k > 0 {
				prev := got[k-1]
				if prev.Paths < d.Paths || (prev.Paths == d.Paths && prev.Transit >= d.Transit) {
					t.Fatalf("seed %d: AS%d upstreams out of order at %d: %+v then %+v", seed, a, k, prev, d)
				}
			}
		}
	}
}

// naivePath is an independent map-based implementation of the
// shortest valley-free path with the same lexicographic tie-break: a
// backward BFS over (AS, phase) states, then a straightforward greedy
// reconstruction scanning ASN-sorted candidate sets.
func naivePath(topo *topology.Graph, from, to world.ASN) []world.ASN {
	s, ok := topo.Index(from)
	if !ok {
		return nil
	}
	d, ok := topo.Index(to)
	if !ok {
		return nil
	}
	if s == d {
		return []world.ASN{from}
	}
	type state struct {
		node  int
		phase int
	}
	rdist := map[state]int{{d, 0}: 0, {d, 1}: 0}
	queue := []state{{d, 0}, {d, 1}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		relax := func(st state) {
			if _, seen := rdist[st]; !seen {
				rdist[st] = rdist[cur] + 1
				queue = append(queue, st)
			}
		}
		if cur.phase == 0 {
			for _, u := range topo.CustomerIdx(cur.node) {
				relax(state{u, 0})
			}
		} else {
			for _, u := range topo.PeerIdx(cur.node) {
				relax(state{u, 0})
			}
			for _, u := range topo.ProviderIdx(cur.node) {
				relax(state{u, 0})
				relax(state{u, 1})
			}
		}
	}
	rem, ok := rdist[state{s, 0}]
	if !ok {
		return nil
	}
	path := []world.ASN{from}
	cur := state{s, 0}
	for ; rem > 0; rem-- {
		var moves []state
		if cur.phase == 0 {
			for _, p := range topo.ProviderIdx(cur.node) {
				moves = append(moves, state{p, 0})
			}
			for _, q := range topo.PeerIdx(cur.node) {
				moves = append(moves, state{q, 1})
			}
		}
		for _, c := range topo.CustomerIdx(cur.node) {
			moves = append(moves, state{c, 1})
		}
		best, found := state{}, false
		for _, m := range moves {
			if dist, seen := rdist[m]; !seen || dist != rem-1 {
				continue
			}
			if !found || topo.ASNAt(m.node) < topo.ASNAt(best.node) ||
				(m.node == best.node && m.phase < best.phase) {
				best, found = m, true
			}
		}
		if !found {
			return nil
		}
		path = append(path, topo.ASNAt(best.node))
		cur = best
	}
	return path
}

// TestGraphDifferentialPaths checks the path oracle against the naive
// implementation over a deterministic sample of endpoint pairs, and
// validates every returned path hop-by-hop against the valley-free
// export rule.
func TestGraphDifferentialPaths(t *testing.T) {
	for _, seed := range seedsUnderTest(t) {
		topo, monitors, orgs := substrate(seed)
		g := Build(topo, monitors, orgs, 1)
		n := topo.NumASes()
		step := n/12 + 1
		var sample []world.ASN
		for i := 0; i < n; i += step {
			sample = append(sample, topo.ASNAt(i))
		}
		for _, from := range sample {
			for _, to := range sample {
				got := g.Path(from, to)
				want := naivePath(topo, from, to)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Path(%d, %d) = %v, naive %v", seed, from, to, got, want)
				}
				if got != nil {
					assertValleyFree(t, topo, got)
				}
			}
		}
	}
}

// assertValleyFree validates a hop sequence against the Gao-Rexford
// export rule: customer→provider climbs, at most one peer edge, then
// provider→customer descents only.
func assertValleyFree(t *testing.T, topo *topology.Graph, p []world.ASN) {
	t.Helper()
	descending := false
	for i := 0; i+1 < len(p); i++ {
		a, b := p[i], p[i+1]
		switch {
		case contains(topo.Providers(a), b): // climbing
			if descending {
				t.Fatalf("path %v climbs at hop %d after descending", p, i)
			}
		case contains(topo.Peers(a), b):
			if descending {
				t.Fatalf("path %v rides a peer edge at hop %d after descending", p, i)
			}
			descending = true
		case contains(topo.Customers(a), b):
			descending = true
		default:
			t.Fatalf("path %v has no edge between AS%d and AS%d", p, a, b)
		}
	}
}

func contains(asns []world.ASN, a world.ASN) bool {
	for _, x := range asns {
		if x == a {
			return true
		}
	}
	return false
}

// TestGraphWorkerIndependence builds the graph at several worker counts
// and requires bit-identical compiled state — the determinism contract
// the parallel build must hold.
func TestGraphWorkerIndependence(t *testing.T) {
	for _, seed := range seedsUnderTest(t) {
		topo, monitors, orgs := substrate(seed)
		ref := Build(topo, monitors, orgs, 1)
		for _, workers := range []int{2, 5} {
			g := Build(topo, monitors, orgs, workers)
			if !reflect.DeepEqual(g.adj, ref.adj) {
				t.Fatalf("seed %d: adjacency differs at %d workers", seed, workers)
			}
			if !reflect.DeepEqual(g.cones, ref.cones) {
				t.Fatalf("seed %d: cones differ at %d workers", seed, workers)
			}
			if !reflect.DeepEqual(g.deps, ref.deps) {
				t.Fatalf("seed %d: dependency rankings differ at %d workers", seed, workers)
			}
			if !reflect.DeepEqual(g.observed, ref.observed) {
				t.Fatalf("seed %d: observed-path counts differ at %d workers", seed, workers)
			}
		}
	}
}

// TestDependencyPhaseAllocationFree pins phase 3's per-origin work on a
// warmed worker scratch: propagating one origin within the monitors'
// scope, walking every monitor's next hops, counting transits and
// ranking them into the worker's arena allocates nothing, and neither
// does observing and ranking a single-homed stub off its provider's
// propagation. Build packs the arenas into the compiled graph once.
func TestDependencyPhaseAllocationFree(t *testing.T) {
	topo, monitors, _ := substrate(diffSeeds[0])
	mon := bgp.MonitorIndices(topo, monitors)
	scope := bgp.NewScope(topo, mon)
	var s buildScratch
	// For origin and stub alike: the AS propagated and the AS observed.
	origin, stub := [2]int{-1, -1}, [2]int{-1, -1}
	for i := 0; i < topo.NumASes(); i++ {
		p, isStub := bgp.StubProvider(topo, i)
		if !isStub {
			p = i
		}
		s.prop.Propagate(topo, topo.ASNAt(p), scope)
		s.observe(topo, mon, i)
		if len(s.touched) > 0 {
			if isStub && stub[1] < 0 {
				stub = [2]int{p, i}
			} else if !isStub && origin[1] < 0 {
				origin = [2]int{p, i}
			}
		}
		s.resetCounts()
	}
	if origin[1] < 0 || stub[1] < 0 {
		t.Fatalf("no origin (%d) or no stub (%d) has a transit on any monitor path", origin[1], stub[1])
	}
	for _, c := range []struct {
		name string
		pair [2]int
	}{{"origin", origin}, {"stub", stub}} {
		allocs := testing.AllocsPerRun(100, func() {
			s.prop.Propagate(topo, topo.ASNAt(c.pair[0]), scope)
			s.observe(topo, mon, c.pair[1])
			if sp := s.ranking(topo, 0); sp.lo == sp.hi {
				t.Fatalf("%s ranking is empty", c.name)
			}
			s.ranks = s.ranks[:0]
		})
		if allocs != 0 {
			t.Fatalf("phase 3 allocates %.1f times per %s on warmed scratch, want 0", allocs, c.name)
		}
	}
}

// TestBuildAllocationsFlat pins the flat layout: Build allocates per
// phase and per worker, never per AS, so a scale-0.5 world, about three
// times the ASes of a scale-0.05 one, may add only the few doublings
// its larger worker arenas and queues take. It builds on one worker:
// with more, how the ASes split between workers decides how often each
// worker's buffers double, and the count varies from run to run.
func TestBuildAllocationsFlat(t *testing.T) {
	measure := func(scale float64) (allocs float64, ases int) {
		w := world.Generate(world.Config{Seed: 42, Scale: scale})
		topo := topology.Build(w, topology.FinalYear)
		monitors := bgp.SelectMonitors(w, topo, 0)
		orgs := as2org.Infer(whois.Build(w))
		return testing.AllocsPerRun(2, func() { Build(topo, monitors, orgs, 1) }), topo.NumASes()
	}
	small, smallASes := measure(0.05)
	big, bigASes := measure(0.5)
	t.Logf("Build allocations: %.0f for %d ASes, %.0f for %d", small, smallASes, big, bigASes)
	if bigASes < 2*smallASes {
		t.Fatalf("scale 0.5 has %d ASes, scale 0.05 %d: the comparison is vacuous", bigASes, smallASes)
	}
	if big > small+flatBuildSlack {
		t.Fatalf("Build allocates %.0f times for %d ASes and %.0f for %d: more than %d apart", big, bigASes, small, smallASes, flatBuildSlack)
	}
}

// flatBuildSlack bounds the allocations a larger world may add to
// Build: each worker's growing buffers (the cone queue, the touched
// list, both arenas and the kernel's frontiers) double a few more
// times, where per-AS lists added thousands.
const flatBuildSlack = 64

// TestPathAllocatesOnce pins Path's pooled scratch: once the pool holds
// a scratch, a query allocates only the path it returns.
func TestPathAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of its items")
	}
	topo, monitors, orgs := substrate(42)
	g := Build(topo, monitors, orgs, 1)
	n := topo.NumASes()
	var from, to world.ASN
	for i := 0; i < n && from == 0; i++ {
		for j := n - 1; j > i; j-- {
			if p := g.Path(topo.ASNAt(i), topo.ASNAt(j)); len(p) > 2 {
				from, to = topo.ASNAt(i), topo.ASNAt(j)
				break
			}
		}
	}
	if from == 0 {
		t.Fatal("no pair with a path longer than two hops")
	}
	if allocs := testing.AllocsPerRun(100, func() { g.Path(from, to) }); allocs != 1 {
		t.Fatalf("Path(%d, %d) allocates %.1f times per call, want 1", from, to, allocs)
	}
}

// TestPathConcurrentReaders pins the pooled scratch under concurrent
// readers: four goroutines asking the same graph for the same paths at
// once get the answers one reader got alone.
func TestPathConcurrentReaders(t *testing.T) {
	topo, monitors, orgs := substrate(42)
	g := Build(topo, monitors, orgs, 0)
	n := topo.NumASes()
	pairs := make([][2]world.ASN, 64)
	want := make([][]world.ASN, len(pairs))
	for k := range pairs {
		pairs[k] = [2]world.ASN{topo.ASNAt(k * n / len(pairs)), topo.ASNAt((k*37 + 11) % n)}
		want[k] = g.Path(pairs[k][0], pairs[k][1])
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, p := range pairs {
				if got := g.Path(p[0], p[1]); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("Path(%d, %d) = %v under concurrent readers, alone %v", p[0], p[1], got, want[k])
				}
			}
		}()
	}
	wg.Wait()
}

// TestGraphInactiveASN pins the not-in-snapshot behavior of every
// accessor.
func TestGraphInactiveASN(t *testing.T) {
	topo, monitors, orgs := substrate(42)
	g := Build(topo, monitors, orgs, 0)
	const ghost = world.ASN(4294967294)
	if g.Active(ghost) {
		t.Fatal("ghost ASN reported active")
	}
	if _, ok := g.Neighbors(ghost, Provider); ok {
		t.Fatal("Neighbors ok for a ghost ASN")
	}
	if g.Cone(ghost) != nil || g.ConeSize(ghost) != 0 {
		t.Fatal("cone accessors answered for a ghost ASN")
	}
	if _, ok := g.Upstreams(ghost); ok {
		t.Fatal("Upstreams ok for a ghost ASN")
	}
	if g.PathsObserved(ghost) != 0 {
		t.Fatal("PathsObserved nonzero for a ghost ASN")
	}
	if g.Path(ghost, topo.ASNAt(0)) != nil || g.Path(topo.ASNAt(0), ghost) != nil {
		t.Fatal("Path answered for a ghost endpoint")
	}
}

// TestAccessorsCapacityCapped pins the flat layout's contract with
// callers: every AS's lists share one array with the next AS's, so each
// accessor hands out its range with capacity equal to length, and a
// caller's append copies instead of writing the neighbouring AS's
// entries.
func TestAccessorsCapacityCapped(t *testing.T) {
	topo, monitors, orgs := substrate(42)
	g := Build(topo, monitors, orgs, 0)
	for i := 0; i < topo.NumASes(); i++ {
		a := topo.ASNAt(i)
		lists := [][]world.ASN{g.Cone(a)}
		for _, c := range Classes() {
			l, _ := g.Neighbors(a, c)
			lists = append(lists, l)
		}
		for k, l := range lists {
			if cap(l) != len(l) {
				t.Fatalf("AS%d list %d has length %d and capacity %d", a, k, len(l), cap(l))
			}
		}
	}
}

// TestParseClass pins the wire names.
func TestParseClass(t *testing.T) {
	for _, c := range Classes() {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if got, ok := ParseClass("PROVIDER"); !ok || got != Provider {
		t.Fatalf("ParseClass is not case-insensitive: %v, %v", got, ok)
	}
	if _, ok := ParseClass("transit"); ok {
		t.Fatal("ParseClass accepted an unknown class")
	}
}
