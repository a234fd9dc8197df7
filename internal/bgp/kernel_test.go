package bgp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// referencePropagate is the propagation algorithm as it stood before the
// kernel took it over, kept verbatim — fresh arrays and frontiers per
// call — as the differential oracle for Scratch.Propagate.
func referencePropagate(g *topology.Graph, origin world.ASN) *PathView {
	oIdx, ok := g.Index(origin)
	if !ok {
		return nil
	}
	n := g.NumASes()
	routes := make([]route, n)
	routes[oIdx] = route{class: classCustomer, dist: 0, next: -1}

	better := func(a, b route) bool { // is a better than b
		if a.class != b.class {
			return a.class > b.class
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		return a.next < b.next && b.next >= 0
	}

	// Phase 1: customer routes climb provider edges (BFS by distance).
	queue := []int{oIdx}
	for len(queue) > 0 {
		var next []int
		for _, cur := range queue {
			for _, p := range g.ProviderIdx(cur) {
				cand := route{class: classCustomer, dist: routes[cur].dist + 1, next: int32(cur)}
				if routes[p].class == classNone || better(cand, routes[p]) {
					if routes[p].class == classNone {
						next = append(next, p)
					}
					routes[p] = cand
				}
			}
		}
		queue = next
	}

	// Phase 2: one peer hop from any AS holding a customer route.
	peerRoutes := make([]route, n)
	for i := 0; i < n; i++ {
		if routes[i].class != classCustomer {
			continue
		}
		for _, p := range g.PeerIdx(i) {
			if routes[p].class == classCustomer {
				continue
			}
			cand := route{class: classPeer, dist: routes[i].dist + 1, next: int32(i)}
			if peerRoutes[p].class == classNone || better(cand, peerRoutes[p]) {
				peerRoutes[p] = cand
			}
		}
	}
	for i := 0; i < n; i++ {
		if peerRoutes[i].class == classPeer && routes[i].class == classNone {
			routes[i] = peerRoutes[i]
		}
	}

	// Phase 3: provider routes descend customer edges, BFS by distance
	// from every routed AS.
	queue = queue[:0]
	for i := 0; i < n; i++ {
		if routes[i].class != classNone {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		var next []int
		for _, cur := range queue {
			for _, c := range g.CustomerIdx(cur) {
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
		queue = next
	}

	return &PathView{g: g, origin: origin, routes: routes}
}

// referencePath is PathView.Path's walk as it stood before paths were
// sized up front: append hop by hop, nil on a cycle.
func referencePath(v *PathView, from world.ASN) []world.ASN {
	i, ok := v.g.Index(from)
	if !ok || v.routes[i].class == classNone {
		return nil
	}
	var path []world.ASN
	for {
		path = append(path, v.g.ASNAt(i))
		nxt := v.routes[i].next
		if nxt < 0 {
			break
		}
		i = int(nxt)
		if len(path) > v.g.NumASes() {
			return nil
		}
	}
	return path
}

// kernelWorlds are the differential's topologies, large then small then
// large again, so one Scratch is shrunk and then regrown within the
// capacity the first world left it.
var kernelWorlds = []struct {
	seed  uint64
	scale float64
}{{7, 0.1}, {21, 0.04}, {42, 0.1}}

// TestKernelMatchesReference runs one Scratch over every origin of every
// kernel world and requires its per-AS (class, dist, next) to equal the
// reference's exactly, along with every monitor's reconstructed path.
// Any drift in visit order, tie-breaking or per-origin reset shows up
// here before it can move a CTI sum.
func TestKernelMatchesReference(t *testing.T) {
	var s Scratch
	sizes := make([]int, len(kernelWorlds))
	for k, kw := range kernelWorlds {
		w := world.Generate(world.Config{Seed: kw.seed, Scale: kw.scale})
		g := topology.Build(w, topology.FinalYear)
		sizes[k] = g.NumASes()
		monitors := SelectMonitors(w, g, 0)
		all := allScope(g)
		for _, origin := range g.ASes() {
			want := referencePropagate(g, origin)
			if !s.Propagate(g, origin, all) {
				t.Fatalf("seed %d: kernel rejected active origin %d", kw.seed, origin)
			}
			if len(s.routes) != len(want.routes) {
				t.Fatalf("seed %d origin %d: %d routes, want %d", kw.seed, origin, len(s.routes), len(want.routes))
			}
			for i, r := range want.routes {
				if s.routes[i] != r {
					t.Fatalf("seed %d origin %d: AS%d route %+v, reference %+v",
						kw.seed, origin, g.ASNAt(i), s.routes[i], r)
				}
			}
			got := &PathView{g: g, origin: origin, routes: s.routes}
			for _, m := range monitors {
				if p, wp := got.Path(m.AS), referencePath(want, m.AS); !reflect.DeepEqual(p, wp) {
					t.Fatalf("seed %d origin %d: monitor %s path %v, reference %v", kw.seed, origin, m.ID, p, wp)
				}
			}
		}
		if s.Propagate(g, 4294967294, all) {
			t.Fatalf("seed %d: kernel accepted an origin outside the graph", kw.seed)
		}
	}
	if !(sizes[1] < sizes[2] && sizes[2] <= sizes[0]) {
		t.Fatalf("kernel worlds sized %v; want large, small, then large within the first's size", sizes)
	}
}

// TestKernelAllocationFree pins the kernel's point: on a warmed Scratch
// a propagation allocates nothing, whichever origin it runs for, within
// the scope of every AS or of the monitors, and neither does a campaign
// overlay laid on it, of any kind, with ROV on every third AS or on
// none.
func TestKernelAllocationFree(t *testing.T) {
	var s Scratch
	origins := testG.ASes()
	all := allScope(testG)
	sc := NewScope(testG, MonitorIndices(testG, SelectMonitors(testW, testG, 0)))
	everyThird := map[world.ASN]bool{}
	for i := 0; i < len(origins); i += 3 {
		everyThird[origins[i]] = true
	}
	rovs := [][]bool{rovIndex(testG, nil), rovIndex(testG, everyThird)}
	forged := []world.ASN{64512}
	// campaign returns the k-th campaign of the sweep below: victims and
	// hijackers a fixed stride apart, the kinds and ROV sets in turn.
	campaign := func(k int) (Campaign, []bool) {
		c := Campaign{Kind: CampaignKind(k % 3), Victim: origins[k%len(origins)],
			Hijacker: origins[(k*577+1)%len(origins)], Forged: forged}
		return c, rovs[(k/3)%2]
	}
	for k := range origins { // campaign k's victim is origins[k]
		c, rov := campaign(k)
		for _, scope := range []*Scope{all, sc} {
			s.Propagate(testG, c.Victim, scope)
			s.propagateHijack(testG, c, rov, scope)
		}
	}
	for _, c := range []struct {
		name string
		sc   *Scope
	}{{"all-ases", all}, {"scoped", sc}} {
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			s.Propagate(testG, origins[k%len(origins)], c.sc)
			k += 7
		})
		if allocs != 0 {
			t.Fatalf("warmed %s kernel allocates %.1f times per origin, want 0", c.name, allocs)
		}
		k, live := 0, 0
		allocs = testing.AllocsPerRun(600, func() {
			camp, rov := campaign(k)
			s.Propagate(testG, camp.Victim, c.sc)
			if s.propagateHijack(testG, camp, rov, c.sc) {
				live++
			}
			k++
		})
		if allocs != 0 {
			t.Fatalf("warmed %s overlay allocates %.1f times per campaign, want 0", c.name, allocs)
		}
		if live == 0 {
			t.Fatalf("no %s overlay ran; the check is vacuous", c.name)
		}
	}
}

// scopeCase is a topology and the monitors whose scope is checked on it.
type scopeCase struct {
	g        *topology.Graph
	monitors []Monitor
}

// scopeEdgeCases is a hand-shaped topology for the monitor scope. The
// origin AS100 climbs AS20 to the tier-1 AS1, which peers with the
// tier-1 AS2. The monitor in AS60 sits two providers deep (AS30, then
// AS1), so its path needs the scope's transitive providers; the monitor
// in AS40 reaches the origin across its peering with AS20, an ancestry
// AS outside the scope. AS70, a customer of the scope's AS30 but not in
// the scope, peers with AS20 too: its two-hop peer route is shorter
// than AS30's and AS60's, and a scoped run must give it no route.
var scopeEdgeCases = scopeCase{
	topology.FromEdges(
		[]world.ASN{1, 2, 10, 20, 30, 40, 60, 70, 100},
		[][2]world.ASN{{1, 10}, {1, 20}, {20, 100}, {1, 30}, {30, 60}, {30, 70}, {2, 40}},
		[][2]world.ASN{{1, 2}, {20, 40}, {20, 70}}),
	[]Monitor{{ID: "deep", AS: 60}, {ID: "across-peer", AS: 40}},
}

// seedOrderCase is a hand-shaped topology on which phase 3's seed order
// decides a monitor's route. The origin AS100 climbs AS3, AS2 and AS1.
// In phase 3's first layer AS1 routes AS20 at distance 4 and AS3 routes
// AS10 at distance 2; AS10, a provider of AS20, then lowers AS20 to
// distance 3. Seeded in dense-index order, AS1 goes first, so AS20 is
// visited before AS10 lowers it and the monitor in AS20's customer
// AS30 keeps distance 5. Seeded in ancestry order, AS3 goes first and
// the monitor gets distance 4.
var seedOrderCase = scopeCase{
	topology.FromEdges(
		[]world.ASN{1, 2, 3, 10, 20, 30, 100},
		[][2]world.ASN{{3, 100}, {2, 3}, {1, 2}, {1, 20}, {3, 10}, {10, 20}, {20, 30}},
		nil),
	[]Monitor{{ID: "below-lowered", AS: 30}},
}

// TestScopedKernelMatchesReference proves the monitor scope's rule for
// every origin of scopeEdgeCases, seedOrderCase and the kernel worlds,
// on one Scratch: in the scope and along the origin's provider ancestry
// every (class, dist, next) equals referencePropagate's, every other AS
// has no route, and every monitor's path equals the reference's. A run
// of another origin within the scope of every AS precedes every third
// monitor-scoped run, so the scratch resets after runs over the whole
// graph as well as after scoped ones, and it shrinks and regrows across
// the kernel worlds.
func TestScopedKernelMatchesReference(t *testing.T) {
	cases := []scopeCase{scopeEdgeCases, seedOrderCase}
	for _, kw := range kernelWorlds {
		w := world.Generate(world.Config{Seed: kw.seed, Scale: kw.scale})
		g := topology.Build(w, topology.FinalYear)
		cases = append(cases, scopeCase{g, SelectMonitors(w, g, 0)})
	}
	var s Scratch
	for k, c := range cases {
		g := c.g
		sc, all := NewScope(g, MonitorIndices(g, c.monitors)), allScope(g)
		in := make([]bool, g.NumASes())
		for _, i := range sc.members {
			in[i] = true
		}
		origins := g.ASes()
		for j, origin := range origins {
			if j%3 == 0 {
				s.Propagate(g, origins[(j+1)%len(origins)], all)
			}
			want := referencePropagate(g, origin)
			if !s.Propagate(g, origin, sc) {
				t.Fatalf("world %d: scoped kernel rejected active origin %d", k, origin)
			}
			for i, r := range want.routes {
				if !in[i] && r.class != classCustomer {
					r = route{}
				}
				if s.routes[i] != r {
					t.Fatalf("world %d origin %d: AS%d (in scope: %v) route %+v, want %+v",
						k, origin, g.ASNAt(i), in[i], s.routes[i], r)
				}
			}
			got := &PathView{g: g, origin: origin, routes: s.routes}
			for _, m := range c.monitors {
				if p, wp := got.Path(m.AS), referencePath(want, m.AS); !reflect.DeepEqual(p, wp) {
					t.Fatalf("world %d origin %d: monitor %s path %v, reference %v", k, origin, m.ID, p, wp)
				}
			}
		}
	}

	// The hand-shaped cases still have the shapes their comments describe.
	g := scopeEdgeCases.g
	var members []world.ASN
	for _, i := range NewScope(g, MonitorIndices(g, scopeEdgeCases.monitors)).members {
		members = append(members, g.ASNAt(i))
	}
	ref := referencePropagate(g, 100)
	paths := [][]world.ASN{referencePath(ref, 60), referencePath(ref, 40), referencePath(ref, 70)}
	if !reflect.DeepEqual(members, []world.ASN{1, 2, 30, 40, 60}) ||
		!reflect.DeepEqual(paths, [][]world.ASN{{60, 30, 1, 20, 100}, {40, 20, 100}, {70, 20, 100}}) {
		t.Fatalf("scopeEdgeCases changed shape: scope %v, paths from AS60, AS40, AS70 %v", members, paths)
	}
	g = seedOrderCase.g
	ref = referencePropagate(g, 100)
	i30, _ := g.Index(30)
	i20, _ := g.Index(20)
	if r := ref.routes[i30]; r != (route{class: classProvider, dist: 5, next: int32(i20)}) {
		t.Fatalf("seedOrderCase changed shape: AS30 route %+v, want distance 5 via AS20", r)
	}
}

// stubEdgeCases is a hand-shaped topology holding each near-stub a
// generated world never does: AS10 has one provider and a peer, AS11
// one provider and a customer (AS12), AS13 two providers. AS12 and AS14
// are true single-homed stubs.
var stubEdgeCases = topology.FromEdges(
	[]world.ASN{1, 2, 3, 10, 11, 12, 13, 14},
	[][2]world.ASN{{1, 2}, {1, 3}, {2, 10}, {2, 11}, {11, 12}, {2, 13}, {3, 13}, {3, 14}},
	[][2]world.ASN{{10, 3}})

// TestStubProviderMatchesReference proves StubProvider's rule for every
// single-homed stub of the kernel worlds and of stubEdgeCases: the
// provider's kernel routes, with every routed distance one longer, the
// provider's next hop set to the stub and the stub as the origin, equal
// referencePropagate(stub) on every AS. Accepting an AS with a peer, a
// customer or a second provider as a stub breaks the equality.
func TestStubProviderMatchesReference(t *testing.T) {
	graphs := []*topology.Graph{stubEdgeCases}
	for _, kw := range kernelWorlds {
		w := world.Generate(world.Config{Seed: kw.seed, Scale: kw.scale})
		graphs = append(graphs, topology.Build(w, topology.FinalYear))
	}
	var s Scratch
	for k, g := range graphs {
		stubs, all := 0, allScope(g)
		for stub := 0; stub < g.NumASes(); stub++ {
			p, ok := StubProvider(g, stub)
			if !ok {
				continue
			}
			stubs++
			want := referencePropagate(g, g.ASNAt(stub))
			s.Propagate(g, g.ASNAt(p), all)
			for i, r := range s.routes {
				if r.class != classNone {
					r.dist++
				}
				switch i {
				case p:
					r.next = int32(stub)
				case stub:
					r = route{class: classCustomer, dist: 0, next: -1}
				}
				if r != want.routes[i] {
					t.Fatalf("graph %d stub AS%d via provider AS%d: AS%d derived route %+v, reference %+v",
						k, g.ASNAt(stub), g.ASNAt(p), g.ASNAt(i), r, want.routes[i])
				}
			}
		}
		if stubs == 0 {
			t.Fatalf("graph %d: no single-homed stubs to check", k)
		}
	}
}

// fuzzReader hands out a fuzz input's bytes in order, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzCase is a small topology with monitors, an origin, a campaign
// against it and a ROV set, as FuzzKernelMatchesReference decodes them.
type fuzzCase struct {
	g        *topology.Graph
	monitors []Monitor
	origin   world.ASN
	c        Campaign
	rov      map[world.ASN]bool
}

// decodeFuzzCase builds a fuzzCase from data: the AS count (2–17), one
// ASN label per AS position, edges as (position, position, kind) triples
// — a provider edge always runs from the lower position to the higher,
// so there is no provider cycle, and a pair keeps only its first edge,
// so none is both a provider edge and a peer edge — then up to three
// monitor positions, the origin's position, the campaign's kind,
// hijacker position and forged tail length, and one ROV byte per
// position (ROV where it is 0 mod 4).
func decodeFuzzCase(data []byte) fuzzCase {
	r := fuzzReader(data)
	n := 2 + r.next()%16
	asns := make([]world.ASN, n)
	used := map[world.ASN]bool{}
	for p := range asns {
		a := world.ASN(1 + r.next())
		for used[a] {
			a++
		}
		used[a], asns[p] = true, a
	}
	var links, peerings [][2]world.ASN
	paired := map[[2]int]bool{}
	for e := r.next() % 48; e > 0; e-- {
		a, b, kind := r.next()%n, r.next()%n, r.next()%2
		if a == b {
			continue
		}
		lo, hi := min(a, b), max(a, b)
		if paired[[2]int{lo, hi}] {
			continue
		}
		paired[[2]int{lo, hi}] = true
		if kind == 0 {
			links = append(links, [2]world.ASN{asns[lo], asns[hi]})
		} else {
			peerings = append(peerings, [2]world.ASN{asns[lo], asns[hi]})
		}
	}
	fc := fuzzCase{g: topology.FromEdges(asns, links, peerings)}
	for m := r.next() % 4; m > 0; m-- {
		fc.monitors = append(fc.monitors, Monitor{ID: fmt.Sprint(len(fc.monitors)), AS: asns[r.next()%n]})
	}
	fc.origin = asns[r.next()%n]
	fc.c = Campaign{Kind: CampaignKind(r.next() % 3), Victim: fc.origin, Hijacker: asns[r.next()%n]}
	for k := r.next() % 3; k > 0; k-- {
		fc.c.Forged = append(fc.c.Forged, world.ASN(64511+k))
	}
	fc.rov = map[world.ASN]bool{}
	for _, a := range asns {
		if r.next()%4 == 0 {
			fc.rov[a] = true
		}
	}
	return fc
}

// encodeFuzzCase is decodeFuzzCase's inverse for a hand-shaped
// topology: it lists the ASes providers first, labels each by its rank
// in ASN order (which keeps every dense index and so every tie break),
// sets no ROV, and attacks origin from hijacker with an exact-prefix
// campaign.
func encodeFuzzCase(g *topology.Graph, monitors []Monitor, origin, hijacker world.ASN) []byte {
	n := g.NumASes()
	var order []int // providers before customers
	placed := make([]bool, n)
	for len(order) < n {
		for i := 0; i < n; i++ {
			ready := !placed[i]
			for _, p := range g.ProviderIdx(i) {
				ready = ready && placed[p]
			}
			if ready {
				placed[i] = true
				order = append(order, i)
			}
		}
	}
	pos := make([]int, n)
	data := []byte{byte(n - 2)}
	for p, i := range order {
		pos[i] = p
		data = append(data, byte(i)) // label i+1: the rank in ASN order
	}
	var edges []byte
	for i := 0; i < n; i++ {
		for _, c := range g.CustomerIdx(i) {
			edges = append(edges, byte(pos[i]), byte(pos[c]), 0)
		}
		for _, p := range g.PeerIdx(i) {
			if i < p {
				edges = append(edges, byte(pos[i]), byte(pos[p]), 1)
			}
		}
	}
	data = append(data, byte(len(edges)/3))
	data = append(data, edges...)
	at := func(a world.ASN) byte { i, _ := g.Index(a); return byte(pos[i]) }
	data = append(data, byte(len(monitors)))
	for _, m := range monitors {
		data = append(data, at(m.AS))
	}
	data = append(data, at(origin), byte(ExactPrefix), at(hijacker), 0)
	for range n {
		data = append(data, 1)
	}
	return data
}

// FuzzKernelMatchesReference holds the kernel and the campaign overlay
// to referencePropagate and referencePropagateHijack on small
// topologies of any shape the decoder makes: the honest run on every AS
// within the scope of every AS, and on the members and the origin's
// ancestry within the monitors' scope (every other AS unrouted); the
// overlay on the members of both scopes. The seed corpus holds
// scopeEdgeCases, seedOrderCase and hijackOrderCases, each re-decoded
// and checked to be the same topology.
func FuzzKernelMatchesReference(f *testing.F) {
	seeds := []struct {
		g                *topology.Graph
		monitors         []Monitor
		origin, hijacker world.ASN
	}{
		{scopeEdgeCases.g, scopeEdgeCases.monitors, 100, 70},
		{seedOrderCase.g, seedOrderCase.monitors, 100, 10},
	}
	for _, hc := range hijackOrderCases {
		seeds = append(seeds, struct {
			g                *topology.Graph
			monitors         []Monitor
			origin, hijacker world.ASN
		}{hc.g, hc.monitors, hc.victim, hc.hijacker})
	}
	for _, sd := range seeds {
		data := encodeFuzzCase(sd.g, sd.monitors, sd.origin, sd.hijacker)
		if got, want := edgeList(decodeFuzzCase(data).g), edgeList(sd.g); !reflect.DeepEqual(got, want) {
			f.Fatalf("a seed decodes to edges %v, want %v", got, want)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzCase(data)
		g := fc.g
		ref := referencePropagate(g, fc.origin)
		all, sc := allScope(g), NewScope(g, MonitorIndices(g, fc.monitors))
		in := make([]bool, g.NumASes())
		for _, i := range sc.members {
			in[i] = true
		}
		var s Scratch
		for k, scope := range []*Scope{all, sc} {
			if !s.Propagate(g, fc.origin, scope) {
				t.Fatalf("scope %d: the kernel rejected origin AS%d", k, fc.origin)
			}
			for i, r := range ref.routes {
				if k == 1 && !in[i] && r.class != classCustomer {
					r = route{}
				}
				if s.routes[i] != r {
					t.Fatalf("scope %d: AS%d route %+v, reference %+v", k, g.ASNAt(i), s.routes[i], r)
				}
			}
		}
		want := referencePropagateHijack(g, ref.routes, fc.c, fc.rov)
		if d := overlayDiff(&s, g, fc.c, rovIndex(g, fc.rov), []*Scope{all, sc}, want); d != "" {
			t.Fatalf("%s campaign by AS%d: %s", fc.c.Kind, fc.c.Hijacker, d)
		}
	})
}

// edgeList lists g's provider edges and peerings by rank in ASN order
// (dense index), sorted, so topologies that differ only in their ASN
// labels compare equal.
func edgeList(g *topology.Graph) [][3]int {
	var out [][3]int
	for i := 0; i < g.NumASes(); i++ {
		for _, c := range g.CustomerIdx(i) {
			out = append(out, [3]int{i, c, 0})
		}
		for _, p := range g.PeerIdx(i) {
			if i < p {
				out = append(out, [3]int{i, p, 1})
			}
		}
	}
	slices.SortFunc(out, func(a, b [3]int) int {
		for k := range a {
			if a[k] != b[k] {
				return a[k] - b[k]
			}
		}
		return 0
	})
	return out
}
