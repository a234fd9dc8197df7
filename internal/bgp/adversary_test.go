package bgp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// inert reports whether one campaign cannot inject routes: the hijacker
// is outside the topology, self-targeting, or itself validates origins
// (a validating operator drops its own invalid route before export).
func inert(g *topology.Graph, c Campaign, rov map[world.ASN]bool) bool {
	if c.Hijacker == c.Victim || !g.Active(c.Hijacker) {
		return true
	}
	return rov[c.Hijacker]
}

// referencePropagateHijack is the campaign overlay as it stood before it
// took the honest run's scope, kept verbatim but for fresh arrays and
// frontiers per call: every phase runs over the whole graph, phase 2
// stages peer offers in a second n-sized array, and phase 3 seeds every
// routed AS. honest holds the honest routes toward c.Victim. It returns
// the overlay's routes, or nil for an inert campaign.
func referencePropagateHijack(g *topology.Graph, honest []route, c Campaign, rov map[world.ASN]bool) []route {
	if inert(g, c, rov) {
		return nil
	}
	hIdx, ok := g.Index(c.Hijacker)
	if !ok {
		return nil
	}
	vIdx, _ := g.Index(c.Victim)
	n := g.NumASes()
	routes := make([]route, n)
	peerRoutes := make([]route, n)
	routes[hIdx] = route{class: classCustomer, dist: c.tailLen(), next: -1}

	adopt := func(p int, cand route) bool {
		if p == vIdx || p == hIdx {
			return false // the victim filters its own space; the hijacker originated
		}
		if rov[g.ASNAt(p)] {
			return false
		}
		if c.Kind == SubPrefix {
			return true // longest-prefix match: no competition with the honest route
		}
		hr := honest[p]
		return hr.class == classNone || better(cand, hr)
	}

	// Phase 1: the invalid route climbs provider edges from adopters.
	queue := []int{hIdx}
	for len(queue) > 0 {
		var next []int
		for _, cur := range queue {
			for _, p := range g.ProviderIdx(cur) {
				cand := route{class: classCustomer, dist: routes[cur].dist + 1, next: int32(cur)}
				if (routes[p].class == classNone || better(cand, routes[p])) && adopt(p, cand) {
					if routes[p].class == classNone {
						next = append(next, p)
					}
					routes[p] = cand
				}
			}
		}
		queue = next
	}

	// Phase 2: one peer hop from customer-class adopters.
	for i := 0; i < n; i++ {
		if routes[i].class != classCustomer {
			continue
		}
		for _, p := range g.PeerIdx(i) {
			if routes[p].class == classCustomer {
				continue
			}
			cand := route{class: classPeer, dist: routes[i].dist + 1, next: int32(i)}
			if (peerRoutes[p].class == classNone || better(cand, peerRoutes[p])) && adopt(p, cand) {
				peerRoutes[p] = cand
			}
		}
	}
	for i := 0; i < n; i++ {
		if peerRoutes[i].class == classPeer && routes[i].class == classNone {
			routes[i] = peerRoutes[i]
		}
	}

	// Phase 3: the invalid route descends customer edges from adopters.
	queue = queue[:0]
	for i := 0; i < n; i++ {
		if routes[i].class != classNone {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		var next []int
		for _, cur := range queue {
			for _, cidx := range g.CustomerIdx(cur) {
				cand := route{class: classProvider, dist: routes[cur].dist + 1, next: int32(cur)}
				if routes[cidx].class == classNone {
					if adopt(cidx, cand) {
						routes[cidx] = cand
						next = append(next, cidx)
					}
				} else if routes[cidx].class == classProvider && better(cand, routes[cidx]) && adopt(cidx, cand) {
					routes[cidx] = cand
				}
			}
		}
		queue = next
	}
	return routes
}

// spread returns the ASes that adopt campaign c's announcement under the
// given ROV set, sorted ascending — the campaign's infection footprint —
// from the collector's overlay run within the scope of every AS. It
// fails t unless they are the adopters of referencePropagateHijack laid
// on referencePropagate, so every campaign a test builds checks the
// overlay.
func spread(t *testing.T, g *topology.Graph, c Campaign, rov map[world.ASN]bool) []world.ASN {
	t.Helper()
	hIdx, _ := g.Index(c.Hijacker)
	adopters := func(hij []route) []world.ASN {
		var out []world.ASN
		for i, r := range hij {
			if r.class != classNone && i != hIdx {
				out = append(out, g.ASNAt(i))
			}
		}
		slices.Sort(out)
		return out
	}
	var got, want []world.ASN
	var s Scratch
	if all := allScope(g); s.Propagate(g, c.Victim, all) && s.propagateHijack(g, c, rovIndex(g, rov), all) {
		got = adopters(s.hij)
	}
	if view := referencePropagate(g, c.Victim); view != nil {
		if hij := referencePropagateHijack(g, view.routes, c, rov); hij != nil {
			want = adopters(hij)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s campaign by AS%d against AS%d: overlay adopters %v, reference %v", c.Kind, c.Hijacker, c.Victim, got, want)
	}
	return got
}

// pickCampaign returns a deterministic (victim, hijacker) pair whose
// exact-prefix campaign actually infects somebody, so the assertions
// below exercise a live overlay rather than vacuous empties.
func pickCampaign(t *testing.T) (victim, hijacker world.ASN) {
	t.Helper()
	victim = world.ASN(2119) // Telenor: well-connected, reachable everywhere
	for _, h := range testG.ASes() {
		if h == victim {
			continue
		}
		if len(spread(t, testG, Campaign{Kind: ExactPrefix, Victim: victim, Hijacker: h}, nil)) > 0 {
			return victim, h
		}
	}
	t.Fatal("no hijacker wins an exact-prefix campaign anywhere; topology degenerate")
	return 0, 0
}

func samplePaths(t *testing.T, mp *MonitorPaths, origins []world.ASN) map[string][]world.ASN {
	t.Helper()
	out := map[string][]world.ASN{}
	for mi, m := range mp.Monitors {
		for _, o := range origins {
			if p := mp.Path(mi, o); p != nil {
				out[m.ID+"/"+string(rune(o))] = p
			}
		}
	}
	return out
}

// An inactive or campaign-less adversary must delegate to the honest
// collector byte-for-byte — this is the serving stack's contract that
// severity 0 never perturbs a dataset.
func TestCollectPathsAdversaryInertDelegates(t *testing.T) {
	monitors := SelectMonitors(testW, testG, 20)
	origins := testG.ASes()[:40]
	honest := CollectPaths(testG, monitors, origins, 2, nil)
	for name, adv := range map[string]*Adversary{
		"nil":       nil,
		"empty":     {},
		"rov-only":  {ROV: map[world.ASN]bool{origins[0]: true}},
		"all-inert": {Campaigns: []Campaign{{Kind: ExactPrefix, Victim: origins[0], Hijacker: origins[0]}}},
	} {
		got := CollectPaths(testG, monitors, origins, 2, adv)
		if adv.Active() {
			// all-inert is Active (it has a campaign) but each campaign is
			// individually inert; paths must still match.
			for mi := range monitors {
				for _, o := range origins {
					if !reflect.DeepEqual(got.Path(mi, o), honest.Path(mi, o)) {
						t.Fatalf("%s adversary: path(%d, %d) diverged from honest", name, mi, o)
					}
				}
			}
			continue
		}
		if !reflect.DeepEqual(samplePaths(t, got, origins), samplePaths(t, honest, origins)) {
			t.Fatalf("%s adversary: paths diverged from honest collector", name)
		}
	}
}

func TestInertCampaigns(t *testing.T) {
	victim, hijacker := pickCampaign(t)
	cases := map[string]struct {
		c   Campaign
		rov map[world.ASN]bool
	}{
		"self-target":     {Campaign{Kind: ExactPrefix, Victim: victim, Hijacker: victim}, nil},
		"ghost-hijacker":  {Campaign{Kind: SubPrefix, Victim: victim, Hijacker: 4294967294}, nil},
		"validating-self": {Campaign{Kind: ExactPrefix, Victim: victim, Hijacker: hijacker}, map[world.ASN]bool{hijacker: true}},
	}
	for name, tc := range cases {
		if s := spread(t, testG, tc.c, tc.rov); s != nil {
			t.Errorf("%s: inert campaign spread to %d ASes", name, len(s))
		}
	}
}

func TestExactPrefixSpreadExcludesPrincipals(t *testing.T) {
	victim, hijacker := pickCampaign(t)
	spread := spread(t, testG, Campaign{Kind: ExactPrefix, Victim: victim, Hijacker: hijacker}, nil)
	if len(spread) == 0 {
		t.Fatal("picked campaign stopped spreading")
	}
	for i, asn := range spread {
		if asn == victim || asn == hijacker {
			t.Errorf("spread includes principal AS%d", asn)
		}
		if i > 0 && spread[i-1] >= asn {
			t.Errorf("spread not sorted ascending at %d", i)
		}
	}
}

// A sub-prefix announcement wins by longest-prefix match wherever it
// arrives, so its footprint must contain the exact-prefix footprint of
// the same (victim, hijacker) pair, which additionally has to beat the
// honest route.
func TestSubPrefixSupersetOfExact(t *testing.T) {
	victim, hijacker := pickCampaign(t)
	exact := spread(t, testG, Campaign{Kind: ExactPrefix, Victim: victim, Hijacker: hijacker}, nil)
	sub := spread(t, testG, Campaign{Kind: SubPrefix, Victim: victim, Hijacker: hijacker}, nil)
	inSub := map[world.ASN]bool{}
	for _, a := range sub {
		inSub[a] = true
	}
	for _, a := range exact {
		if !inSub[a] {
			t.Errorf("AS%d adopts the exact-prefix route but not the sub-prefix one", a)
		}
	}
	if len(sub) < len(exact) {
		t.Errorf("sub-prefix footprint %d smaller than exact-prefix %d", len(sub), len(exact))
	}
}

// Forged-path announcements keep the victim as observed origin: every
// monitor path for the victim's prefix must still terminate at the
// victim, with the fabricated tail spliced in where the campaign won.
func TestForgedPathKeepsRegisteredOrigin(t *testing.T) {
	victim, hijacker := pickCampaign(t)
	forged := []world.ASN{64500, 64501}
	c := Campaign{Kind: ForgedPath, Victim: victim, Hijacker: hijacker, Forged: forged}
	monitors := SelectMonitors(testW, testG, 30)
	mp := CollectPaths(testG, monitors, []world.ASN{victim}, 2, &Adversary{Campaigns: []Campaign{c}})
	infected := map[world.ASN]bool{hijacker: true}
	for _, a := range spread(t, testG, c, nil) {
		infected[a] = true
	}
	want := append(append([]world.ASN{hijacker}, forged...), victim)
	polluted := 0
	for mi, m := range monitors {
		p := mp.Path(mi, victim)
		if p == nil {
			continue
		}
		if p[len(p)-1] != victim {
			t.Fatalf("monitor %d observes origin AS%d, want the registered AS%d", mi, p[len(p)-1], victim)
		}
		if !infected[m.AS] {
			continue // honest path; may pass through the hijacker AS legitimately
		}
		polluted++
		if len(p) < len(want) || !reflect.DeepEqual(p[len(p)-len(want):], want) {
			t.Fatalf("infected monitor %d: path %v does not end in hijacker+forged tail %v", mi, p, want)
		}
	}
	if polluted == 0 {
		t.Error("no monitor inside the infection footprint; campaign never won")
	}
}

// Growing the ROV deployment set can only shrink the infection
// footprint — the metamorphic core the severity/ROV batteries at the
// pipeline level build on.
func TestSpreadMonotoneInROV(t *testing.T) {
	victim, hijacker := pickCampaign(t)
	c := Campaign{Kind: SubPrefix, Victim: victim, Hijacker: hijacker}
	base := spread(t, testG, c, nil)
	if len(base) < 4 {
		t.Skipf("footprint of %d ASes too small to partition", len(base))
	}
	prev := base
	for _, k := range []int{1, len(base) / 4, len(base) / 2, len(base)} {
		rov := map[world.ASN]bool{}
		for _, a := range base[:k] {
			rov[a] = true
		}
		cur := spread(t, testG, c, rov)
		inPrev := map[world.ASN]bool{}
		for _, a := range prev {
			inPrev[a] = true
		}
		for _, a := range cur {
			if !inPrev[a] {
				t.Fatalf("rov size %d: AS%d infected though it was clean under a smaller deployment", k, a)
			}
			if rov[a] {
				t.Fatalf("rov size %d: validating AS%d adopted the invalid route", k, a)
			}
		}
		if len(cur) > len(prev) {
			t.Fatalf("rov size %d: footprint grew from %d to %d", k, len(prev), len(cur))
		}
		prev = cur
	}
}

// The overlay is surgical: origins without a campaign keep their honest
// paths bit-for-bit, and for the campaigned origin only monitors inside
// the infection footprint see a different path — which then terminates
// at the hijacker (exact-prefix detection contract).
func TestCollectPathsAdversaryOverlay(t *testing.T) {
	victim, hijacker := pickCampaign(t)
	c := Campaign{Kind: ExactPrefix, Victim: victim, Hijacker: hijacker}
	monitors := SelectMonitors(testW, testG, 30)
	origins := append([]world.ASN{victim}, testG.ASes()[:20]...)
	honest := CollectPaths(testG, monitors, origins, 3, nil)
	adv := &Adversary{Campaigns: []Campaign{c}}
	got := CollectPaths(testG, monitors, origins, 3, adv)

	infected := map[world.ASN]bool{hijacker: true}
	for _, a := range spread(t, testG, c, nil) {
		infected[a] = true
	}
	for mi, m := range monitors {
		for _, o := range origins {
			hp, gp := honest.Path(mi, o), got.Path(mi, o)
			switch {
			case o != victim || !infected[m.AS]:
				if !reflect.DeepEqual(hp, gp) {
					t.Fatalf("monitor %d origin %d: clean path perturbed", mi, o)
				}
			default:
				if gp == nil || gp[len(gp)-1] != hijacker {
					t.Fatalf("infected monitor %d: path %v does not terminate at the hijacker", mi, gp)
				}
			}
		}
	}

	// Worker-count invariance: the sharded loop must assemble identical
	// overlays for any pool size.
	for _, workers := range []int{1, 4} {
		other := CollectPaths(testG, monitors, origins, workers, adv)
		for mi := range monitors {
			for _, o := range origins {
				if !reflect.DeepEqual(got.Path(mi, o), other.Path(mi, o)) {
					t.Fatalf("workers=%d: path(%d, %d) differs from workers=3", workers, mi, o)
				}
			}
		}
	}
}

// hijackOrderCase is a hand-shaped topology on which one order inside
// the overlay decides a route: the campaign's principals, the monitors
// whose scope is checked, and the route the case turns on, AS at's
// overlay route under an exact-prefix campaign.
type hijackOrderCase struct {
	name             string
	g                *topology.Graph
	victim, hijacker world.ASN
	monitors         []Monitor
	at, via          world.ASN
	class            routeClass
	dist             int32
}

// hijackOrderCases pin the overlay's two order-sensitive choices. The
// victim AS200 sits in its own component under AS300, so every AS the
// announcement reaches has no honest route and adopts.
//
// "phase-3 seed order" is seedOrderCase with the hijacker in the
// origin's place: the announcement climbs AS3, AS2 and AS1; in phase
// 3's first layer AS1 routes AS20 at distance 4 and AS3 routes AS10 at
// distance 2, and AS10 then lowers AS20 to distance 3. Seeded in
// dense-index order, AS1 goes first, AS20 is visited before it is
// lowered, and the monitor in AS30 keeps distance 5. Seeded in reverse,
// AS3 goes first and AS30 gets distance 4.
//
// "phase-2 best peer offer": the announcement climbs AS10 and AS20, then
// AS50 (above AS10) and AS5 (above AS20), both at distance 2, and both
// peer with the monitor's AS60. Phase 1 lists AS50 before AS5, so
// AS50's offer reaches AS60 first, but AS5's offer ties on distance and
// wins on the lower next hop: AS60 routes via AS5 only if phase 2 keeps
// the best adopted offer rather than the first.
var hijackOrderCases = []hijackOrderCase{
	{
		name: "phase-3 seed order",
		g: topology.FromEdges(
			[]world.ASN{1, 2, 3, 10, 20, 30, 100, 200, 300},
			[][2]world.ASN{{3, 100}, {2, 3}, {1, 2}, {1, 20}, {3, 10}, {10, 20}, {20, 30}, {300, 200}},
			nil),
		victim: 200, hijacker: 100,
		monitors: []Monitor{{ID: "below-lowered", AS: 30}},
		at:       30, via: 20, class: classProvider, dist: 5,
	},
	{
		name: "phase-2 best peer offer",
		g: topology.FromEdges(
			[]world.ASN{5, 10, 20, 50, 60, 100, 200, 300},
			[][2]world.ASN{{10, 100}, {20, 100}, {50, 10}, {5, 20}, {300, 200}},
			[][2]world.ASN{{50, 60}, {5, 60}}),
		victim: 200, hijacker: 100,
		monitors: []Monitor{{ID: "two-offers", AS: 60}},
		at:       60, via: 5, class: classPeer, dist: 3,
	},
}

// TestHijackOverlayOrderCases holds the overlay to
// referencePropagateHijack route for route on hijackOrderCases, for
// every campaign kind: on every AS within the scope of every AS, and on
// every member of the monitors' scope. It also checks that each case
// still turns on the route its comment describes.
func TestHijackOverlayOrderCases(t *testing.T) {
	for _, hc := range hijackOrderCases {
		g := hc.g
		scopes := []*Scope{allScope(g), NewScope(g, MonitorIndices(g, hc.monitors))}
		for _, kind := range []CampaignKind{ExactPrefix, SubPrefix, ForgedPath} {
			c := Campaign{Kind: kind, Victim: hc.victim, Hijacker: hc.hijacker}
			want := referencePropagateHijack(g, referencePropagate(g, c.Victim).routes, c, nil)
			for k, sc := range scopes {
				var s Scratch
				if !s.Propagate(g, c.Victim, sc) || !s.propagateHijack(g, c, rovIndex(g, nil), sc) {
					t.Fatalf("%s, %s, scope %d: the overlay did not run", hc.name, kind, k)
				}
				for _, i := range sc.members {
					if s.hij[i] != want[i] {
						t.Fatalf("%s, %s, scope %d: AS%d overlay route %+v, reference %+v",
							hc.name, kind, k, g.ASNAt(i), s.hij[i], want[i])
					}
				}
			}
			if kind != ExactPrefix {
				continue
			}
			at, _ := g.Index(hc.at)
			via, _ := g.Index(hc.via)
			if r := want[at]; r != (route{class: hc.class, dist: hc.dist, next: int32(via)}) {
				t.Fatalf("%s changed shape: AS%d route %+v, want distance %d via AS%d", hc.name, hc.at, r, hc.dist, hc.via)
			}
		}
	}
}

// overlayDiff lays campaign c's overlay (ROV deployment rov, dense over
// g) on the honest run toward its victim within each scope, and
// describes the first member whose overlay route differs from want, the
// reference overlay's routes (nil for an inert campaign), or returns ""
// when none does.
func overlayDiff(s *Scratch, g *topology.Graph, c Campaign, rov []bool, scopes []*Scope, want []route) string {
	for k, sc := range scopes {
		if !s.Propagate(g, c.Victim, sc) {
			return fmt.Sprintf("scope %d: the kernel rejected victim AS%d", k, c.Victim)
		}
		if ran := s.propagateHijack(g, c, rov, sc); ran != (want != nil) {
			return fmt.Sprintf("scope %d: overlay ran %v, reference %v", k, ran, want != nil)
		}
		for _, i := range sc.members {
			if want != nil && s.hij[i] != want[i] {
				return fmt.Sprintf("scope %d: AS%d overlay route %+v, reference %+v", k, g.ASNAt(i), s.hij[i], want[i])
			}
		}
	}
	return ""
}

// TestHijackOverlaySweep holds the overlay to referencePropagateHijack
// laid on referencePropagate, route for route, over 3,000 campaigns on
// testG: every kind, with no ROV and with ROV on every third AS, against
// 100 victims a fixed stride apart, each attacked by five hijackers a
// fixed stride apart. Within the scope of every AS it compares every
// AS's route, and within the monitors' scope every member's route. The
// hand-shaped hijackOrderCases pin two orders inside the overlay; this
// sweep pins what it adopts, where one missing gate adopts a route an
// AS would refuse. -short runs a tenth of the campaigns.
func TestHijackOverlaySweep(t *testing.T) {
	g := testG
	n := g.NumASes()
	scopes := []*Scope{allScope(g), NewScope(g, MonitorIndices(g, SelectMonitors(testW, g, 0)))}
	everyThird := map[world.ASN]bool{}
	for i := 0; i < n; i += 3 {
		everyThird[g.ASNAt(i)] = true
	}
	rovs := []map[world.ASN]bool{nil, everyThird}
	dense := [][]bool{rovIndex(g, nil), rovIndex(g, everyThird)}
	kinds := []CampaignKind{ExactPrefix, SubPrefix, ForgedPath}
	victims := 100
	if testing.Short() {
		victims /= 10
	}
	var s Scratch
	campaigns, mismatched, live := 0, 0, map[CampaignKind]int{}
	var first string
	for v := 0; v < victims; v++ {
		victim := (v * 131) % n
		honest := referencePropagate(g, g.ASNAt(victim)).routes
		for h := 1; h <= 5; h++ {
			hijacker := (victim + h*577) % n
			for _, kind := range kinds {
				for r, rov := range rovs {
					c := Campaign{Kind: kind, Victim: g.ASNAt(victim), Hijacker: g.ASNAt(hijacker), Forged: []world.ASN{64512, 64513}[:h%3]}
					want := referencePropagateHijack(g, honest, c, rov)
					campaigns++
					if d := overlayDiff(&s, g, c, dense[r], scopes, want); d != "" {
						if mismatched++; first == "" {
							first = fmt.Sprintf("%s campaign by AS%d against AS%d (ROV %v): %s", kind, c.Hijacker, c.Victim, rov != nil, d)
						}
					}
					for _, i := range scopes[1].members {
						if want != nil && i != hijacker && want[i].class != classNone {
							live[kind]++
						}
					}
				}
			}
		}
	}
	t.Logf("%d campaigns over %d ASes; adopting members of the monitors' scope by kind: %v", campaigns, n, live)
	if mismatched > 0 {
		t.Fatalf("%d of %d campaigns differ from the reference; first: %s", mismatched, campaigns, first)
	}
	for _, kind := range kinds {
		if live[kind] == 0 {
			t.Fatalf("no %s campaign routed a member of the monitors' scope; the sweep is vacuous", kind)
		}
	}
}

// BenchmarkHijackOverlay lays one exact-prefix campaign against AS7473
// on a warmed Scratch, within the monitors' scope of the scale-0.5
// world (seed 42), as the collector does for every attacked origin;
// the honest run toward the victim is computed once, outside the timer.
// The hijacker is the first AS whose announcement some other AS
// adopts. It must report 0 B/op and 0 allocs/op.
func BenchmarkHijackOverlay(b *testing.B) {
	w := world.Generate(world.Config{Seed: 42, Scale: 0.5})
	g := topology.Build(w, topology.FinalYear)
	sc := NewScope(g, MonitorIndices(g, SelectMonitors(w, g, 0)))
	rov := rovIndex(g, nil)
	var s Scratch
	if !s.Propagate(g, 7473, sc) {
		b.Fatal("AS7473 is not in the topology")
	}
	c := Campaign{Kind: ExactPrefix, Victim: 7473}
	for _, h := range g.ASes() {
		c.Hijacker = h
		if s.propagateHijack(g, c, rov, sc) && len(s.hijTouched) > 1 {
			break
		}
	}
	for range 2 {
		s.propagateHijack(g, c, rov, sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.propagateHijack(g, c, rov, sc)
	}
}
