package bgp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"stateowned/internal/sched"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

var (
	testW = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	testG = topology.Build(testW, topology.FinalYear)
)

func TestSelectMonitors(t *testing.T) {
	ms := SelectMonitors(testW, testG, 40)
	if len(ms) != 43 { // 40 + 3 duplicate-host monitors
		t.Fatalf("monitors = %d", len(ms))
	}
	ids := map[string]bool{}
	dupAS := false
	seen := map[world.ASN]bool{}
	for _, m := range ms {
		if ids[m.ID] {
			t.Errorf("duplicate monitor ID %s", m.ID)
		}
		ids[m.ID] = true
		if seen[m.AS] {
			dupAS = true
		}
		seen[m.AS] = true
	}
	if !dupAS {
		t.Error("no AS hosts two monitors; CTI weighting untestable")
	}
	// Determinism.
	ms2 := SelectMonitors(testW, testG, 40)
	for i := range ms {
		if ms[i].AS != ms2[i].AS {
			t.Fatal("monitor selection not deterministic")
		}
	}

	// Past two digits IDs stay "rrc" plus a decimal index, still unique.
	large := SelectMonitors(testW, testG, 150)
	if len(large) <= 100 {
		t.Fatalf("150-monitor selection returned only %d monitors", len(large))
	}
	ids = map[string]bool{}
	for i, m := range large {
		digits, ok := strings.CutPrefix(m.ID, "rrc")
		if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" {
			t.Fatalf("monitor %d has ID %q, want rrc followed by digits", i, m.ID)
		}
		if ids[m.ID] {
			t.Fatalf("duplicate monitor ID %s", m.ID)
		}
		ids[m.ID] = true
	}
}

// reachable reports whether the AS has any route to the origin.
func reachable(v *PathView, from world.ASN) bool {
	i, ok := v.g.Index(from)
	return ok && v.routes[i].class != classNone
}

func TestPropagateReachability(t *testing.T) {
	// Nearly every AS should reach a well-connected origin.
	view := Propagate(testG, 7473) // SingTel
	if view == nil {
		t.Fatal("no view")
	}
	reached := 0
	for _, asn := range testG.ASes() {
		if reachable(view, asn) {
			reached++
		}
	}
	if frac := float64(reached) / float64(testG.NumASes()); frac < 0.99 {
		t.Errorf("only %.3f of ASes reach SingTel", frac)
	}
}

func TestPathEndpoints(t *testing.T) {
	origin := world.ASN(2119) // Telenor
	view := Propagate(testG, origin)
	for i, asn := range testG.ASes() {
		if i%37 != 0 {
			continue
		}
		p := view.Path(asn)
		if p == nil {
			continue
		}
		if p[0] != asn || p[len(p)-1] != origin {
			t.Fatalf("path endpoints wrong: %v (from %d to %d)", p, asn, origin)
		}
		seen := map[world.ASN]bool{}
		for _, hop := range p {
			if seen[hop] {
				t.Fatalf("loop in path %v", p)
			}
			seen[hop] = true
		}
	}
}

// TestValleyFreePaths verifies the Gao-Rexford invariant on produced
// paths: once a path goes down (provider->customer) or sideways (peer),
// it never goes up or sideways again.
func TestValleyFreePaths(t *testing.T) {
	rel := func(a, b world.ASN) string {
		for _, c := range testG.Customers(a) {
			if c == b {
				return "down"
			}
		}
		for _, p := range testG.Providers(a) {
			if p == b {
				return "up"
			}
		}
		for _, p := range testG.Peers(a) {
			if p == b {
				return "peer"
			}
		}
		return "none"
	}
	origins := []world.ASN{7473, 12389, 37468, 2119, 11960}
	for _, origin := range origins {
		view := Propagate(testG, origin)
		for i, asn := range testG.ASes() {
			if i%53 != 0 {
				continue
			}
			p := view.Path(asn)
			if len(p) < 2 {
				continue
			}
			// The stored path follows traffic from the vantage AS toward
			// the origin. The announcement traveled the reverse way:
			// up from the origin through providers, at most one peer
			// hop, then down through customers. In traffic direction
			// that is: up* (toward the peak), at most one peer hop,
			// then down* to the origin — no climb after a peer or
			// descent (no valleys).
			phase := 0 // 0=climbing, 1=peer taken, 2=descending
			for k := 0; k+1 < len(p); k++ {
				switch rel(p[k], p[k+1]) {
				case "up":
					if phase > 0 {
						t.Fatalf("valley in path %v at hop %d (up after phase %d)", p, k, phase)
					}
				case "peer":
					if phase >= 1 {
						t.Fatalf("double/late peer hop in path %v", p)
					}
					phase = 1
				case "down":
					phase = 2
				case "none":
					t.Fatalf("non-adjacent hop in path %v at %d", p, k)
				}
			}
		}
	}
}

// Property: path lengths never exceed graph size, and Reachable agrees
// with Path.
func TestPathConsistency(t *testing.T) {
	asns := testG.ASes()
	f := func(oPick, fPick uint16) bool {
		origin := asns[int(oPick)%len(asns)]
		from := asns[int(fPick)%len(asns)]
		view := Propagate(testG, origin)
		p := view.Path(from)
		if reachable(view, from) != (p != nil) {
			return false
		}
		return len(p) <= testG.NumASes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestCollectPaths(t *testing.T) {
	monitors := SelectMonitors(testW, testG, 20)
	origins := []world.ASN{7473, 2119, 11960}
	mp := CollectPaths(testG, monitors, origins, 0, nil)
	found := 0
	for mi := range monitors {
		for _, o := range origins {
			if p := mp.Path(mi, o); p != nil {
				found++
				if p[0] != monitors[mi].AS || p[len(p)-1] != o {
					t.Fatalf("bad collected path %v", p)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no monitor paths collected")
	}
	perAS := mp.MonitorsInAS()
	dup := 0
	for _, n := range perAS {
		if n > 1 {
			dup++
		}
	}
	if dup == 0 {
		t.Error("expected at least one multi-monitor AS")
	}
}

// TestCollectPathsMatchesPropagate is the collector's differential:
// over every origin of the kernel worlds, each monitor's collected path
// equals Propagate(origin).Path(monitor), so propagating within the
// monitors' scope changes no path. The selected monitors are joined by
// one inside an AS without customers, which SelectMonitors never picks
// and which observes the one-hop path toward itself, and one outside
// the graph.
func TestCollectPathsMatchesPropagate(t *testing.T) {
	for _, kw := range kernelWorlds {
		w := world.Generate(world.Config{Seed: kw.seed, Scale: kw.scale})
		g := topology.Build(w, topology.FinalYear)
		leaf := -1
		for i := 0; i < g.NumASes() && leaf < 0; i++ {
			if len(g.CustomerIdx(i)) == 0 {
				leaf = i
			}
		}
		if leaf < 0 {
			t.Fatalf("seed %d: no AS without customers to host a monitor", kw.seed)
		}
		monitors := append(SelectMonitors(w, g, 0),
			Monitor{ID: "in-leaf", AS: g.ASNAt(leaf)}, Monitor{ID: "outside", AS: 4294967294})
		origins := g.ASes()
		mp := CollectPaths(g, monitors, origins, 2, nil)
		for _, o := range origins {
			view := Propagate(g, o)
			for mi, m := range monitors {
				if got, want := mp.Path(mi, o), view.Path(m.AS); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: monitor %s toward AS%d collected %v, Propagate %v", kw.seed, m.ID, o, got, want)
				}
			}
		}
	}
}

// TestCollectPathsAdversaryMatchesPerOrigin checks every monitor row of
// the collector, whose overlays run within the monitors' scope on
// honest runs within it, against referencePropagateHijack laid on
// referencePropagate, for a campaign of every kind: one against an AS
// without customers, one against its provider and one against that
// provider's provider.
func TestCollectPathsAdversaryMatchesPerOrigin(t *testing.T) {
	g := testG
	monitors := SelectMonitors(testW, g, 0)
	mon := MonitorIndices(g, monitors)
	// live returns a campaign of the given kind against victim that some
	// AS adopts.
	live := func(kind CampaignKind, victim int) Campaign {
		for _, h := range g.ASes() {
			c := Campaign{Kind: kind, Victim: g.ASNAt(victim), Hijacker: h, Forged: []world.ASN{64512}}
			if h != c.Victim && len(spread(t, g, c, nil)) > 0 {
				return c
			}
		}
		t.Fatalf("no hijacker wins a %s campaign against AS%d", kind, g.ASNAt(victim))
		return Campaign{}
	}
	victim := -1
	for i := 0; i < g.NumASes() && victim < 0; i++ {
		if len(g.CustomerIdx(i)) == 0 && len(g.ProviderIdx(i)) > 0 && len(g.ProviderIdx(g.ProviderIdx(i)[0])) > 0 {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no AS without customers has a provider with a provider")
	}
	provider := g.ProviderIdx(victim)[0]
	adv := &Adversary{Campaigns: []Campaign{
		live(ExactPrefix, victim),
		live(ForgedPath, provider),
		live(SubPrefix, g.ProviderIdx(provider)[0]),
	}}
	origins := g.ASes()
	mp := CollectPaths(g, monitors, origins, 2, adv)
	honest := CollectPaths(g, monitors, origins, 2, nil)
	polluted := map[world.ASN]int{}
	for _, o := range origins {
		ref := Scratch{routes: referencePropagate(g, o).routes}
		var camp *Campaign
		for _, c := range adv.Campaigns {
			if c.Victim == o {
				if ref.hij = referencePropagateHijack(g, ref.routes, c, nil); ref.hij != nil {
					camp = &c
				}
			}
		}
		for mi, i := range mon {
			want := ref.appendObserved(nil, g, i, camp)
			if got := mp.Path(mi, o); !reflect.DeepEqual(got, want) {
				t.Fatalf("monitor %s toward AS%d collected %v, per-origin reference %v", monitors[mi].ID, o, got, want)
			}
			if camp != nil && !reflect.DeepEqual(want, honest.Path(mi, o)) {
				polluted[o]++
			}
		}
	}
	for _, c := range adv.Campaigns {
		if polluted[c.Victim] == 0 {
			t.Fatalf("the %s campaign against AS%d polluted no monitor path; the check is vacuous", c.Kind, c.Victim)
		}
	}
}

// TestCustomerPreference builds a toy topology to pin down route
// preference: a destination reachable both via a customer and via a
// shorter provider path must be reached via the customer.
func TestCustomerPreference(t *testing.T) {
	// World subset: tiny three-country world is impractical to shape
	// precisely, so verify on the generated graph statistically: for a
	// sample of (AS, origin) pairs where origin is in AS's customer
	// cone, the next hop must be a customer.
	origins := []world.ASN{11960, 2119} // ETECSA, Telenor
	for _, origin := range origins {
		view := Propagate(testG, origin)
		for _, asn := range testG.ASes() {
			p := view.Path(asn)
			if len(p) < 2 {
				continue
			}
			inCone := false
			for _, c := range testG.CustomerCone(asn) {
				if c == origin {
					inCone = true
					break
				}
			}
			if !inCone {
				continue
			}
			// Next hop must be one of asn's customers.
			isCust := false
			for _, c := range testG.Customers(asn) {
				if c == p[1] {
					isCust = true
					break
				}
			}
			if !isCust {
				t.Fatalf("AS%d reaches in-cone origin %d via non-customer %d", asn, origin, p[1])
			}
		}
	}
}

// TestCollectPathsWorkerPanicReachesCaller: path collection runs on
// sched.ParallelFor, so a panic on a pool worker resurfaces on the
// calling goroutine as a *sched.PanicError, where the pipeline's node
// guard contains it, rather than killing the process. A nil topology
// makes every worker's first Propagate panic.
func TestCollectPathsWorkerPanicReachesCaller(t *testing.T) {
	defer func() {
		if _, ok := recover().(*sched.PanicError); !ok {
			t.Fatal("collector worker panic did not reach the caller as a *sched.PanicError")
		}
	}()
	CollectPaths(nil, nil, []world.ASN{1, 2, 3, 4}, 2, nil)
}
