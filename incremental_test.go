package stateowned

// Run-level tests of the memoized build: artifact reuse on an unchanged
// world, byte identity under churn, config-sensitivity of the
// fingerprints, exclusion of failed nodes from the memo, a generated
// world against the same world passed in, and CTI's reuse behind the
// topology's output fingerprint.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"stateowned/internal/churn"
	"stateowned/internal/sched"
	"stateowned/internal/world"
)

const incScale = 0.08

// allNodes is every build-graph node, in declaration order.
var allNodes = []string{
	"topology", "geo", "eyeballs", "whois", "peeringdb",
	"as2org", "orbis", "docs", "cti", "hijack", "stage1", "stage2", "stage3",
}

func incWorld(t *testing.T, seed uint64, churnSteps int) *world.World {
	t.Helper()
	w := world.Generate(world.Config{Seed: seed, Scale: incScale})
	for i := 1; i <= churnSteps; i++ {
		churn.Evolve(w, 2, seed+uint64(i)*1000, churn.DefaultRates())
	}
	return w
}

// assertRunsEqual compares every determinism-relevant projection of two
// runs: exported dataset bytes, rendered analysis tables, and the
// health report's deterministic view (source rows and stages — not
// Timings, which are measurement).
func assertRunsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !bytes.Equal(exportBytes(t, a), exportBytes(t, b)) {
		t.Errorf("%s: exported dataset bytes differ", label)
	}
	if ta, tb := renderedTables(a), renderedTables(b); ta != tb {
		t.Errorf("%s: rendered tables differ", label)
	}
	rowsA, stagesA := healthNotes(a.Health)
	rowsB, stagesB := healthNotes(b.Health)
	if !reflect.DeepEqual(rowsA, rowsB) {
		t.Errorf("%s: health source rows differ:\n%+v\nvs\n%+v", label, rowsA, rowsB)
	}
	if !reflect.DeepEqual(stagesA, stagesB) {
		t.Errorf("%s: health stages differ:\n%+v\nvs\n%+v", label, stagesA, stagesB)
	}
	if a.Health.Render() != b.Health.Render() {
		t.Errorf("%s: rendered health differs", label)
	}
}

// TestIncrementalUnchangedWorldSkipsEveryNode proves the zero-churn
// metamorphic property at the run level: rebuilding over a world whose
// fingerprints are unchanged restores every artifact and executes zero
// build functions.
func TestIncrementalUnchangedWorldSkipsEveryNode(t *testing.T) {
	w := incWorld(t, 42, 1)
	cfg := Config{Seed: 42, Scale: incScale, World: w}
	first := Run(cfg)
	if first.Memo == nil {
		t.Fatal("run captured no memo")
	}
	if len(first.Reused) != 0 {
		t.Fatalf("first run reused nodes: %v", first.Reused)
	}

	var executed []string
	restore := SetBuildHook(func(node string) { executed = append(executed, node) })
	defer restore()
	cfg.Memo = first.Memo
	second := Run(cfg)
	if len(executed) != 0 {
		t.Errorf("unchanged world executed nodes %v, want none", executed)
	}
	if !reflect.DeepEqual(second.Reused, allNodes) {
		t.Errorf("Reused = %v, want all of %v", second.Reused, allNodes)
	}
	assertRunsEqual(t, "unchanged world", first, second)
	if second.World != w {
		t.Error("restored run does not adopt the caller's world")
	}
	if !sameMap(second.CTITop, first.CTITop) {
		t.Error("restored run recomputed the CTI picks instead of adopting them")
	}
}

// TestIncrementalChurnByteIdentical is the run-level differential
// proof: a memoized rebuild over a churn-evolved world must be
// byte-identical to a memo-less rebuild over an identically evolved
// world, while actually reusing the churn-blind sources.
func TestIncrementalChurnByteIdentical(t *testing.T) {
	// Two independently constructed copies of the same evolved world:
	// one for the full rebuild, one for the incremental chain (Evolve
	// mutates in place, so the chain needs its own objects).
	for _, workers := range []int{1, 4} {
		base := incWorld(t, 21, 0)
		evolved := incWorld(t, 21, 2)

		full := Run(Config{Seed: 21, Scale: incScale, World: evolved, Workers: workers})

		r0 := Run(Config{Seed: 21, Scale: incScale, World: base, Workers: workers})
		inc := Run(Config{
			Seed: 21, Scale: incScale, World: incWorld(t, 21, 2),
			Memo: r0.Memo, Workers: workers,
		})
		assertRunsEqual(t, "churned world", full, inc)

		reused := map[string]bool{}
		for _, n := range inc.Reused {
			reused[n] = true
		}
		// Churn only mutates the equity graph, so the structure-only
		// sources must always prove clean.
		for _, n := range []string{"geo", "eyeballs", "whois", "peeringdb", "as2org"} {
			if !reused[n] {
				t.Errorf("workers=%d: structure-only node %q was rebuilt under pure ownership churn", workers, n)
			}
		}
	}
}

// TestIncrementalConfigChangeDirtiesEverything: the fingerprints cover
// the chaos plan, so replaying the same world under a different chaos
// seed must rebuild every node (reusing any artifact would leak the old
// fault episode into the new one).
func TestIncrementalConfigChangeDirtiesEverything(t *testing.T) {
	w := incWorld(t, 7, 1)
	cfg := Config{Seed: 7, Scale: incScale, World: w, ChaosSeverity: 0.3, ChaosSeed: 11}
	first := Run(cfg)

	cfg.Memo = first.Memo
	cfg.ChaosSeed = 12
	second := Run(cfg)
	if len(second.Reused) != 0 {
		t.Errorf("chaos-seed change still reused %v", second.Reused)
	}
}

// TestIncrementalFailedNodeExcludedFromMemo: a panicking node must not
// seed the next generation's memo, and neither may anything downstream
// of it — the rebuilt chain must converge back to the pristine output.
func TestIncrementalFailedNodeExcludedFromMemo(t *testing.T) {
	w := incWorld(t, 42, 1)
	cfg := Config{Seed: 42, Scale: incScale, World: w}

	restore := SetBuildHook(func(node string) {
		if node == "orbis" {
			panic("injected orbis failure")
		}
	})
	broken := Run(cfg)
	restore()
	if got := broken.Memo.Nodes(); len(got) != 0 {
		for _, n := range got {
			if n == "orbis" || strings.HasPrefix(n, "stage") {
				t.Errorf("failed node %q (or dependent) leaked into memo %v", n, got)
			}
		}
	}

	// Rebuild over the same world with the degraded memo: orbis and the
	// stages must re-execute, and the result must equal a pristine run.
	cfg.Memo = broken.Memo
	healed := Run(cfg)
	pristine := Run(Config{Seed: 42, Scale: incScale, World: w})
	assertRunsEqual(t, "healed after panic", pristine, healed)
	sort.Strings(healed.Reused)
	for _, n := range healed.Reused {
		if n == "orbis" || strings.HasPrefix(n, "stage") {
			t.Errorf("node %q reused from a failed build", n)
		}
	}
}

// TestMemoScrubbedFromResultConfig guards the retention chain: holding
// a Result must not pin the previous generation's artifacts.
func TestMemoScrubbedFromResultConfig(t *testing.T) {
	w := incWorld(t, 42, 0)
	res := Run(Config{Seed: 42, Scale: incScale, World: w})
	if res.Config.Memo != nil {
		t.Errorf("memo input survived on Result.Config: %+v", res.Config.Memo)
	}
	res2 := Run(Config{Seed: 42, Scale: incScale, World: w, Memo: res.Memo})
	if res2.Config.Memo != nil {
		t.Error("memo input survived on second Result.Config")
	}
}

// TestRenderExcludesIncrementalMetadata is the latent-determinism
// guard: Health.Render (the diffable report) must not change when
// Timings, Workers or reuse markers differ — otherwise memo metadata
// could leak into golden bytes.
func TestRenderExcludesIncrementalMetadata(t *testing.T) {
	w := incWorld(t, 42, 1)
	full := Run(Config{Seed: 42, Scale: incScale, World: w, Workers: 1})
	inc0 := Run(Config{Seed: 42, Scale: incScale, World: w, Workers: 4})
	inc := Run(Config{Seed: 42, Scale: incScale, World: w, Memo: inc0.Memo, Workers: 8})

	if full.Health.Render() != inc.Health.Render() {
		t.Error("Render differs between full and memoized runs over the same world")
	}
	if r := inc.Health.Render(); strings.Contains(r, "reused") {
		t.Errorf("Render leaks reuse metadata:\n%s", r)
	}
	if !strings.Contains(inc.Health.RenderTimings(), "reused") {
		t.Error("RenderTimings does not surface reuse markers")
	}
}

// sameMap reports whether two CTI pick maps are the same map object.
func sameMap(a, b map[string][]world.ASN) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestRunGeneratedWorldMatchesSuppliedWorld: Run prepares the world
// before the build graph, and where the world came from must not show.
// A run that generates its world and a run handed the same world
// produce the same bytes and memoize every node under the same
// fingerprint.
func TestRunGeneratedWorldMatchesSuppliedWorld(t *testing.T) {
	for _, seed := range []uint64{7, 42} {
		generated := Run(Config{Seed: seed, Scale: incScale})
		supplied := Run(Config{Seed: seed, Scale: incScale,
			World: world.Generate(world.Config{Seed: seed, Scale: incScale})})
		label := fmt.Sprintf("seed %d", seed)
		assertRunsEqual(t, label, generated, supplied)

		nodes := generated.Memo.Nodes()
		if len(nodes) != len(allNodes) || !reflect.DeepEqual(nodes, supplied.Memo.Nodes()) {
			t.Fatalf("%s: memo nodes %v vs %v, want all %d nodes in both",
				label, nodes, supplied.Memo.Nodes(), len(allNodes))
		}
		for _, n := range nodes {
			a, _ := generated.Memo.Lookup(n)
			b, _ := supplied.Memo.Lookup(n)
			if a.FP != b.FP {
				t.Errorf("%s: node %q memoized under %s vs %s", label, n, a.FP, b.FP)
			}
		}
	}
}

// eagerFingerprintInputs is fingerprintInputs as it stood when one core
// hashed the whole world before the graph started, kept verbatim as the
// oracle for the per-node functions the nodes now call in their slots.
func eagerFingerprintInputs(cfg Config, w *world.World) map[string]sched.Fingerprint {
	structFP := w.FingerprintStructure()
	ownFP := w.FingerprintOwnership()

	ch := sched.NewHasher("config")
	ch.U64(cfg.Seed)
	ch.F64(cfg.Scale)
	ch.I64(int64(len(cfg.Countries)))
	for _, cc := range cfg.Countries {
		ch.Str(cc)
	}
	ch.I64(int64(cfg.Monitors))
	ch.F64(cfg.Threshold)
	ch.Bool(cfg.DisableGeo)
	ch.Bool(cfg.DisableEyeballs)
	ch.Bool(cfg.DisableCTI)
	ch.Bool(cfg.DisableOrbis)
	ch.Bool(cfg.DisableWikiFH)
	ch.Bool(cfg.DisableSiblings)
	ch.F64(cfg.ChaosSeverity)
	chaos := cfg.ChaosSeed
	if chaos == 0 {
		chaos = cfg.Seed
	}
	ch.U64(chaos)
	ch.F64(cfg.HijackSeverity)
	hjSeed := cfg.HijackSeed
	if hjSeed == 0 {
		hjSeed = cfg.Seed
	}
	ch.U64(hjSeed)
	ch.F64(cfg.ROVFraction)
	cfgFP := ch.Sum()

	mk := func(domain string, parts ...sched.Fingerprint) sched.Fingerprint {
		h := sched.NewHasher(domain)
		h.FP(cfgFP)
		for _, p := range parts {
			h.FP(p)
		}
		return h.Sum()
	}
	return map[string]sched.Fingerprint{
		"topology":  mk("node/topology", structFP, ownFP),
		"geo":       mk("node/geo", structFP),
		"eyeballs":  mk("node/eyeballs", structFP),
		"whois":     mk("node/whois", structFP),
		"peeringdb": mk("node/peeringdb", structFP),
		"as2org":    mk("node/as2org", structFP),
		"orbis":     mk("node/orbis", structFP, ownFP),
		"docs":      mk("node/docs", structFP, ownFP),
		"cti":       mk("node/cti", structFP),
		"hijack":    mk("node/hijack", structFP, ownFP),
		"stage1":    mk("node/stage1", structFP),
		"stage2":    mk("node/stage2"),
		"stage3":    mk("node/stage3"),
	}
}

// TestLazyFingerprintsMatchEager holds the per-node fingerprint
// functions to the eager oracle for seeds {7, 21, 42}, at generation 0
// and after 5 default-churn steps: called directly, every node's
// function returns the oracle's value, also when all of them race for
// the shared world projections; and a Run, at one worker and at four,
// memoizes every node under it.
func TestLazyFingerprintsMatchEager(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		for _, steps := range []int{0, 5} {
			label := fmt.Sprintf("seed %d after %d churn steps", seed, steps)
			cfg := Config{Seed: seed, Scale: incScale, World: incWorld(t, seed, steps), HijackSeverity: 0.5}
			want := eagerFingerprintInputs(cfg, cfg.World)
			lazy := fingerprintInputs(cfg, cfg.World)
			if len(lazy) != len(allNodes) || len(want) != len(allNodes) {
				t.Fatalf("%s: %d lazy and %d eager fingerprints for %d nodes", label, len(lazy), len(want), len(allNodes))
			}
			got := make([]sched.Fingerprint, len(allNodes))
			sched.ParallelFor(len(allNodes), len(allNodes), func(_, i int) { got[i] = lazy[allNodes[i]]() })
			for i, n := range allNodes {
				if got[i] != want[n] {
					t.Errorf("%s: node %q fingerprint %s, oracle %s", label, n, got[i], want[n])
				}
			}
			for _, workers := range []int{1, 4} {
				cfg.Workers = workers
				res := Run(cfg)
				for _, n := range allNodes {
					if a, ok := res.Memo.Lookup(n); !ok || a.FP != want[n] {
						t.Errorf("%s, %d workers: node %q memoized under %s (present %v), oracle %s",
							label, workers, n, a.FP, ok, want[n])
					}
				}
			}
		}
	}
}

// TestCTICutoff: the monitor count and the hijack
// severity decide what CTI computes but not the topology, so under a
// changed value the topology rebuilds to the same content and restores
// its previous graph, and only the cti node's own fingerprint stands
// between the old picks and the new run. A memo recorded at the zero
// value must not restore cti, and the picks must equal a memo-less
// run's.
func TestCTICutoff(t *testing.T) {
	w := incWorld(t, 42, 0)
	r0 := Run(Config{Seed: 42, Scale: incScale, World: w})
	if len(r0.CTITop) == 0 {
		t.Fatal("the base run picked no CTI transit ASes")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"monitors", Config{Seed: 42, Scale: incScale, World: w, Monitors: 25}},
		{"adversary", Config{Seed: 42, Scale: incScale, World: w, HijackSeverity: 1}},
	} {
		full := Run(tc.cfg)
		tc.cfg.Memo = r0.Memo
		res := Run(tc.cfg)
		assertRunsEqual(t, tc.name, full, res)
		if slices.Contains(res.Reused, "cti") || sameMap(res.CTITop, r0.CTITop) {
			t.Errorf("%s changed, yet the previous CTI picks were restored", tc.name)
		}
		if !reflect.DeepEqual(res.CTITop, full.CTITop) {
			t.Errorf("%s changed: picks differ from a memo-less run's", tc.name)
		}
		if reflect.DeepEqual(res.CTITop, r0.CTITop) {
			t.Errorf("%s changed, yet every country's picks stayed the same: the case tests nothing", tc.name)
		}
	}
}

// TestCTICutoffAcrossChurn drives the topology's output cutoff through
// a churned chain. Ownership churn rebuilds the topology
// every generation; whenever the rebuilt content equals the parent's,
// the run keeps the parent's graph object, cti restores the parent's
// picks (the same map object), and the run equals a memo-less one.
// When the content differs, cti rebuilds. The chain must include a
// generation of each kind, or the test proves nothing.
func TestCTICutoffAcrossChurn(t *testing.T) {
	prev := Run(Config{Seed: 42, Scale: incScale, World: incWorld(t, 42, 0)})
	cutoffs, changes := 0, 0
	for g := 1; g <= 3; g++ { // generations 1 and 2 change the topology, 3 does not
		res := Run(Config{Seed: 42, Scale: incScale, World: incWorld(t, 42, g), Memo: prev.Memo})
		full := Run(Config{Seed: 42, Scale: incScale, World: incWorld(t, 42, g)})
		label := fmt.Sprintf("generation %d", g)
		assertRunsEqual(t, label, full, res)
		if slices.Contains(res.Reused, "topology") {
			t.Fatalf("%s: ownership churn left the topology's input fingerprint unchanged", label)
		}
		same := topologyContentFP(full.Topology) == topologyContentFP(prev.Topology)
		ctiReused := slices.Contains(res.Reused, "cti")
		if ctiReused != same || sameMap(res.CTITop, prev.CTITop) != same || (res.Topology == prev.Topology) != same {
			t.Errorf("%s: unchanged topology content %v, yet cti restored %v, picks kept %v, graph kept %v",
				label, same, ctiReused, sameMap(res.CTITop, prev.CTITop), res.Topology == prev.Topology)
		}
		if same {
			cutoffs++
		} else {
			changes++
		}
		prev = res
	}
	if cutoffs == 0 || changes == 0 {
		t.Fatalf("chain had %d generations with unchanged topology content and %d with changed; want both", cutoffs, changes)
	}
}
