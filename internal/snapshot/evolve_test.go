package snapshot

// The world-level proof for parent-evolved generations. An advance
// evolves the live generation's world by one churn step on a
// clone of its ownership graph instead of replaying every step from a
// fresh world; the world-level differential below holds the evolved
// chain to the replay. The store-level shape — shared structure, the
// parent left untouched, the superseded generation trimmed yet serving
// the same bytes — is checked by TestIncrementalPinnedReadsDuringAdvance.

import (
	"fmt"
	"reflect"
	"testing"

	"stateowned/internal/churn"
	"stateowned/internal/sched"
	"stateowned/internal/world"
)

// assertWorldsEqual compares everything the pipeline and the audits can
// read of two worlds: the structure and ownership fingerprints and every
// entity's resolved control. It returns the ownership fingerprint.
func assertWorldsEqual(t *testing.T, gen int, got, want *world.World) sched.Fingerprint {
	t.Helper()
	if got.FingerprintStructure() != want.FingerprintStructure() {
		t.Fatalf("generation %d: structure fingerprints differ", gen)
	}
	fp := got.FingerprintOwnership()
	if fp != want.FingerprintOwnership() {
		t.Fatalf("generation %d: ownership fingerprints differ", gen)
	}
	ids := want.Graph.Entities()
	if gotIDs := got.Graph.Entities(); !reflect.DeepEqual(gotIDs, ids) {
		t.Fatalf("generation %d: %d entities, want %d", gen, len(gotIDs), len(ids))
	}
	for _, id := range ids {
		if g, w := got.Graph.ControlOf(id), want.Graph.ControlOf(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("generation %d: control of %s = %+v, want %+v", gen, id, g, w)
		}
	}
	return fp
}

// TestEvolvedWorldMatchesReplay is the world-level differential: a
// chain of worlds each evolved by one churn step from a clone of its
// parent (what Store.build does with a live parent) equals one world
// evolved in place step after step (what a replay from generation 0
// does), at every generation — same structure, same ownership, same
// control for every entity, same event log — and evolving a successor
// never changes its parent. Linear in the chain length.
func TestEvolvedWorldMatchesReplay(t *testing.T) {
	gens := 50
	if testing.Short() {
		gens = 10
	}
	type worldCase struct {
		seed  uint64
		name  string
		rates churn.Rates
	}
	var cases []worldCase
	for _, seed := range []uint64{7, 21, 42} {
		cases = append(cases, worldCase{seed, "default", churn.DefaultRates()}, worldCase{seed, "heavy", heavyRates()})
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("seed%d-%s", c.seed, c.name), func(t *testing.T) {
			if testing.Short() && i > 0 {
				t.Skip("one world-level case in -short mode")
			}
			t.Parallel()
			cfg := world.Config{Seed: c.seed, Scale: testScale}
			seeds := offlineChurnSeeds(c.seed, gens)
			replayed, evolved := world.Generate(cfg), world.Generate(cfg)
			parentFP := assertWorldsEqual(t, 0, evolved, replayed)
			total := 0
			for gen := 1; gen <= gens; gen++ {
				want := churn.Evolve(replayed, yearsPerGen, seeds[gen], c.rates)
				parent := evolved
				evolved = successor(parent)
				got := churn.Evolve(evolved, yearsPerGen, seeds[gen], c.rates)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("generation %d: evolved events %v, replayed %v", gen, got, want)
				}
				if parent.FingerprintOwnership() != parentFP {
					t.Fatalf("evolving generation %d changed its parent's ownership", gen)
				}
				parentFP = assertWorldsEqual(t, gen, evolved, replayed)
				total += len(got)
			}
			if total == 0 {
				t.Fatal("no churn event in the whole chain; the comparison is vacuous")
			}
		})
	}
}
