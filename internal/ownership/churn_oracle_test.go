package ownership_test

import (
	"fmt"
	"math"
	"testing"

	"stateowned/internal/churn"
	"stateowned/internal/ownership"
	"stateowned/internal/world"
)

// oracleSeeds are the worlds the churn oracle test evolves; -short
// keeps one.
var oracleSeeds = []uint64{7, 21, 42}

// oracleRates are the churn levels it evolves them under.
var oracleRates = []struct {
	name  string
	rates churn.Rates
}{
	{"default", churn.DefaultRates()},
	{"heavy", churn.Rates{Privatization: 0.15, Nationalization: 0.08, NewSubsidiary: 0.1}},
}

// TestControlMatchesMapOracle holds the handle-based fixpoint to the
// map-based one it replaced (ownership.OracleControl), bit for bit on
// every entity's controller, share and state shares: after generation
// and after every churn event of a 12-step chain, for seeds {7, 21, 42}
// under default and heavy rates (-short: seed 42). Each step's events
// come from churn.Evolve on a clone; the test applies them one at a
// time, as churn does, and then requires the same ownership the clone
// reached.
func TestControlMatchesMapOracle(t *testing.T) {
	seeds := oracleSeeds
	if testing.Short() {
		seeds = seeds[len(seeds)-1:]
	}
	for _, seed := range seeds {
		for _, rl := range oracleRates {
			t.Run(fmt.Sprintf("seed%d/%s", seed, rl.name), func(t *testing.T) {
				w := world.Generate(world.Config{Seed: seed, Scale: 0.05})
				checkOracle(t, w.Graph, "generation")
				applied := 0
				for step := 1; step <= 12; step++ {
					evolved := *w
					evolved.Graph = w.Graph.Clone()
					events := churn.Evolve(&evolved, 1, seed*1000+uint64(step), rl.rates)
					for _, e := range events {
						applyEvent(w.Graph, w.Operators[e.OperatorID], e.Kind)
						checkOracle(t, w.Graph, fmt.Sprintf("step %d, %s of %s", step, e.Kind, e.OperatorID))
						applied++
					}
					if w.FingerprintOwnership() != evolved.FingerprintOwnership() {
						t.Fatalf("step %d: applying the events one at a time reached other ownership than churn.Evolve", step)
					}
				}
				if applied == 0 {
					t.Fatal("no churn event in the chain; the test is vacuous")
				}
				t.Logf("%d events checked", applied)
			})
		}
	}
}

// applyEvent makes the equity-graph mutations of one churn event on
// operator op, with the reads churn makes between them.
func applyEvent(g *ownership.Graph, op *world.Operator, kind churn.EventKind) {
	switch kind {
	case churn.Privatization:
		var removed float64
		for _, h := range g.Holders(op.Entity) {
			if g.ControlOf(h.Holder).Controlled() {
				removed += g.RemoveHolding(h.Holder, op.Entity)
			}
		}
		buyer := ownership.EntityID("buyer-" + op.ID)
		if _, ok := g.Entity(buyer); !ok {
			g.MustAddEntity(ownership.Entity{
				ID: buyer, Kind: ownership.KindPrivate,
				Name: op.BrandName + " private investors", Country: op.Country,
			})
		}
		g.MustAddHolding(ownership.Holding{Holder: buyer, Target: op.Entity, Share: removed})
	case churn.Nationalization:
		for _, h := range g.Holders(op.Entity) {
			e, _ := g.Entity(h.Holder)
			if e.Kind != ownership.KindPrivate || h.Share < ownership.MajorityThreshold {
				continue
			}
			share := g.RemoveHolding(h.Holder, op.Entity)
			gov := ownership.EntityID("gov-" + op.Country)
			if _, ok := g.Entity(gov); !ok {
				g.MustAddEntity(ownership.Entity{
					ID: gov, Kind: ownership.KindGovernment,
					Name: "Government of " + op.Country, Country: op.Country,
				})
			}
			g.MustAddHolding(ownership.Holding{Holder: gov, Target: op.Entity, Share: share})
			return
		}
	}
}

// checkOracle fails unless ControlOf equals the map-based oracle on
// every entity of g, floats compared by their bits.
func checkOracle(t *testing.T, g *ownership.Graph, where string) {
	t.Helper()
	want := ownership.OracleControl(g)
	for _, id := range g.Entities() {
		got, w := g.ControlOf(id), want[id]
		same := got.Controller == w.Controller &&
			math.Float64bits(got.Share) == math.Float64bits(w.Share) &&
			len(got.StateShares) == len(w.StateShares)
		for cc, s := range w.StateShares {
			g, ok := got.StateShares[cc]
			same = same && ok && math.Float64bits(g) == math.Float64bits(s)
		}
		if !same {
			t.Fatalf("%s: entity %s: ControlOf = %+v, map oracle %+v", where, id, got, w)
		}
	}
}

// TestControlOfAllocationFree pins the memo's read path: on a resolved
// graph, ControlOf allocates nothing — for a controlled entity, for one
// no state holds a share of (whose StateShares is nil) and for an
// unknown ID.
func TestControlOfAllocationFree(t *testing.T) {
	w := world.Generate(world.Config{Seed: 42, Scale: 0.05})
	g := w.Graph
	var controlled, bare ownership.EntityID
	for _, id := range g.Entities() {
		c := g.ControlOf(id)
		switch {
		case c.Controlled() && controlled == "":
			controlled = id
		case len(c.StateShares) == 0 && bare == "":
			bare = id
		}
	}
	if controlled == "" || bare == "" {
		t.Fatalf("no controlled (%q) or share-free (%q) entity", controlled, bare)
	}
	if c := g.ControlOf(bare); c.StateShares != nil {
		t.Fatalf("share-free entity %s has a StateShares map %v", bare, c.StateShares)
	}
	allocs := testing.AllocsPerRun(100, func() {
		g.ControlOf(controlled)
		g.ControlOf(bare)
		g.ControlOf("no-such-entity")
	})
	if allocs != 0 {
		t.Fatalf("ControlOf allocates %.1f times per three reads on a resolved graph, want 0", allocs)
	}
}

// TestCloneAllocationsFlat pins Clone's sharing: it allocates the same
// number of objects for a scale-0.5 world's graph as for a scale-0.05
// one's, a quarter of its size — the holdings are copied into one
// array per direction, and the entities, their index, the sorted order
// and the memo are shared.
func TestCloneAllocationsFlat(t *testing.T) {
	measure := func(scale float64) (allocs float64, entities int) {
		g := world.Generate(world.Config{Seed: 42, Scale: scale}).Graph
		g.ControlOf("") // resolve, as a generation's graph is when cloned
		return testing.AllocsPerRun(10, func() { g.Clone() }), g.NumEntities()
	}
	small, smallN := measure(0.05)
	big, bigN := measure(0.5)
	t.Logf("Clone allocations: %.0f for %d entities, %.0f for %d", small, smallN, big, bigN)
	if bigN < 2*smallN {
		t.Fatalf("scale 0.5 has %d entities, scale 0.05 %d: the comparison is vacuous", bigN, smallN)
	}
	if big != small {
		t.Fatalf("Clone allocates %.0f objects for %d entities and %.0f for %d", big, bigN, small, smallN)
	}
}
