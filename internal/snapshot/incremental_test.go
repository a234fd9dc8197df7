package snapshot

// The memoized-rebuild differential proof harness. The claim under
// test: a store advancing as it always does — reusing the previous
// generation's memoized artifacts, compiled serving index and graph
// plane wherever fingerprints prove the inputs unchanged — serves a
// chain of generations byte-identical to a memo-less oracle that builds
// every generation with a nil memo. "Byte-identical" is measured at
// every surface a client can see: exported dataset bytes, rendered
// analysis tables, the health report, and the full /v1/* + /v1/graph/*
// HTTP surface pinned per generation.

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"stateowned"
	"stateowned/internal/analysis"
	"stateowned/internal/churn"
	"stateowned/internal/sched"
	"stateowned/internal/serve"
)

// chainCase is one row of the differential matrix: a seed, a churn
// severity, and a build-pool size.
type chainCase struct {
	seed    uint64
	rates   churn.Rates
	workers int
	label   string

	// Adversary knobs: a non-zero hijack severity runs the whole chain
	// under seeded prefix-hijack campaigns, which the memoized chain
	// must reproduce byte-identically too (/v1/hijacks is probed).
	hijack float64
	rov    float64
}

// chainGens is the chain length after generation 0.
const chainGens = 3

// heavyRates churns roughly an order of magnitude faster than the
// observed decade — enough that most generations move several operators.
func heavyRates() churn.Rates {
	return churn.Rates{Privatization: 0.15, Nationalization: 0.08, NewSubsidiary: 0.1}
}

// negligibleRates is a non-zero Rates value (the zero value would be
// normalized to DefaultRates) whose probabilities can never fire.
func negligibleRates() churn.Rates {
	return churn.Rates{Privatization: 1e-300, Nationalization: 1e-300, NewSubsidiary: 1e-300}
}

// chainStore builds a store over the case's config, retaining the whole
// chain so every generation stays pinnable for the HTTP comparison.
func chainStore(c chainCase) *Store {
	noGate := DefaultValidation()
	noGate.MaxChurnFraction = 1e9 // severity is the axis under test, not the gate's opinion of it
	return New(Options{
		Base: stateowned.Config{
			Seed: c.seed, Scale: testScale, Workers: c.workers,
			HijackSeverity: c.hijack, ROVFraction: c.rov,
		},
		Rates:      c.rates,
		Retain:     chainGens + 1,
		Validation: &noGate,
	})
}

// advanceOracle builds the store's next generation with no parent — so
// stateowned.Run gets a nil memo and builds every node — and publishes
// it. It is the memo-less oracle the differential harness compares the
// memoized chain against; it fails the test if the build reused
// anything, so the comparison can never go vacuous.
func advanceOracle(t *testing.T, s *Store) {
	t.Helper()
	g := s.build(s.Current().Gen+1, nil)
	if g.Stats.NodesReused != 0 {
		t.Fatalf("oracle generation %d reused %v", g.Gen, g.Stats.ReusedNodes)
	}
	s.publish(g)
}

// advanceBoth advances the memoized chain and the oracle in lockstep
// through chainGens generations, comparing every generation's rendered
// analysis tables while it is live, and returns how many nodes the
// memoized chain restored in total.
func advanceBoth(t *testing.T, memo, oracle *Store) int {
	t.Helper()
	assertLiveTablesEqual(t, oracle, memo)
	reused := 0
	for gen := 1; gen <= chainGens; gen++ {
		if memo.Advance() == nil {
			t.Fatalf("advance to generation %d quarantined: %v", gen, memo.Degraded())
		}
		advanceOracle(t, oracle)
		reused += memo.Current().Stats.NodesReused
		assertLiveTablesEqual(t, oracle, memo)
	}
	return reused
}

// assertLiveTablesEqual compares the live generations' rendered
// analysis tables. The tables render from the build's substrates, which
// only the live generation keeps, so the chain differential compares
// them generation by generation as the chains advance.
func assertLiveTablesEqual(t *testing.T, oracle, memo *Store) {
	t.Helper()
	gf, gi := oracle.Current(), memo.Current()
	if gf.Gen != gi.Gen {
		t.Fatalf("chains out of step: oracle at generation %d, memo at %d", gf.Gen, gi.Gen)
	}
	if renderedTables(gf) != renderedTables(gi) {
		t.Errorf("generation %d: rendered analysis tables differ", gi.Gen)
	}
}

// renderedTables renders the three analysis tables — the human-facing
// projection that must not notice the reuse path.
func renderedTables(g *Generation) string {
	d := g.Result.AnalysisData()
	var b bytes.Buffer
	b.WriteString(analysis.RenderHeadline(analysis.ComputeHeadline(d)))
	b.WriteString(analysis.RenderTable1(analysis.ComputeTable1(d)))
	b.WriteString(analysis.RenderScore("score", analysis.ComputeScore(d, nil)))
	return b.String()
}

// probePaths assembles the HTTP battery from a generation-0 dataset:
// real and missing ASNs, country and org lookups, search, the dataset
// export, and every graph endpoint. Both stores share generation 0
// content, so the battery is identical for both.
func probePaths(t *testing.T, g *Generation) []string {
	t.Helper()
	ds := g.Result.Dataset
	var asns []string
	for i := range ds.ASNs {
		for _, a := range ds.ASNs[i].ASNs {
			asns = append(asns, strconv.FormatUint(uint64(a), 10))
		}
		if len(asns) >= 6 {
			break
		}
	}
	if len(asns) < 2 {
		t.Fatal("generation 0 dataset too small to probe")
	}
	paths := []string{
		"/v1/asn/" + asns[0],
		"/v1/asn/" + asns[len(asns)-1],
		"/v1/asn/49999", // below the world's range: stable miss
		"/v1/country/" + ds.Organizations[0].OwnershipCC,
		"/v1/org/" + ds.Organizations[0].OrgID,
		"/v1/search?name=telecom",
		"/v1/search?name=national+operator&limit=5",
		"/v1/dataset",
		"/v1/graph/neighbors/" + asns[0],
		"/v1/graph/neighbors/" + asns[1] + "?class=provider",
		"/v1/graph/upstreams/" + asns[0],
		"/v1/graph/cone/" + asns[0],
		"/v1/graph/path?from=" + asns[0] + "&to=" + asns[len(asns)-1],
		"/v1/hijacks",
		"/v1/hijacks?cross_border=true",
	}
	return paths
}

// fetch GETs one path and returns status plus body.
func fetch(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// pin appends a ?gen=/&gen= pin to a path.
func pin(path string, gen int) string {
	sep := "?"
	if bytes.ContainsRune([]byte(path), '?') {
		sep = "&"
	}
	return path + sep + "gen=" + strconv.Itoa(gen)
}

// assertChainsEqual walks both stores generation by generation and
// compares every observable surface a retained generation serves; the
// rendered analysis tables were compared while each generation was
// live (assertLiveTablesEqual).
func assertChainsEqual(t *testing.T, oracle, memo *Store) {
	t.Helper()
	oracleSrv := httptest.NewServer(serve.NewDynamic(oracle.Source(), serve.Options{}))
	defer oracleSrv.Close()
	memoSrv := httptest.NewServer(serve.NewDynamic(memo.Source(), serve.Options{}))
	defer memoSrv.Close()

	g0, _ := oracle.Lookup(0)
	paths := probePaths(t, g0)
	for gen := 0; gen <= chainGens; gen++ {
		gf, stf := oracle.Lookup(gen)
		gi, sti := memo.Lookup(gen)
		if stf != serve.GenOK || sti != serve.GenOK {
			t.Fatalf("generation %d not retained (oracle=%d memo=%d)", gen, stf, sti)
		}
		if !bytes.Equal(exportDataset(t, gf), exportDataset(t, gi)) {
			t.Errorf("generation %d: dataset bytes differ between the oracle and the memoized chain", gen)
		}
		if gf.Result.Health.Render() != gi.Result.Health.Render() {
			t.Errorf("generation %d: rendered health differs", gen)
		}
		if len(gf.Events) != len(gi.Events) || gf.TotalEvents != gi.TotalEvents {
			t.Errorf("generation %d: churn history differs (%d/%d vs %d/%d events)",
				gen, len(gf.Events), gf.TotalEvents, len(gi.Events), gi.TotalEvents)
		}
		for _, p := range paths {
			pp := pin(p, gen)
			fs, fb := fetch(t, oracleSrv, pp)
			is, ib := fetch(t, memoSrv, pp)
			if fs != is || fb != ib {
				t.Errorf("generation %d: GET %s diverges\noracle (%d): %.300s\nmemo (%d): %.300s",
					gen, pp, fs, fb, is, ib)
			}
		}
	}
	// /v1/diff spans generations — compare the audits across the chain.
	for _, span := range [][2]int{{0, chainGens}, {1, 2}} {
		p := fmt.Sprintf("/v1/diff?from=%d&to=%d", span[0], span[1])
		fs, fb := fetch(t, oracleSrv, p)
		is, ib := fetch(t, memoSrv, p)
		if fs != is || fb != ib {
			t.Errorf("GET %s diverges between the oracle and the memoized chain", p)
		}
	}
}

// TestIncrementalChainByteIdentical is the differential proof: for
// every seed × churn severity × worker count, the memoized chain is
// observably identical to the memo-less oracle at every generation,
// while actually reusing work.
func TestIncrementalChainByteIdentical(t *testing.T) {
	var cases []chainCase
	for _, seed := range []uint64{7, 21, 42} {
		for _, r := range []struct {
			name  string
			rates churn.Rates
		}{{"default", churn.DefaultRates()}, {"heavy", heavyRates()}} {
			for _, workers := range []int{1, 4} {
				pool := "serial"
				if workers > 1 {
					pool = "parallel"
				}
				cases = append(cases, chainCase{seed: seed, rates: r.rates, workers: workers,
					label: fmt.Sprintf("seed%d-%s-%s", seed, r.name, pool)})
			}
		}
	}
	// cutoffAdoptions counts generations of the default-churn cases that
	// rebuilt the topology yet adopted the parent's graph plane: the
	// topology's output fingerprint matched, so cti and as2org restored.
	cutoffAdoptions, defaultRan := 0, false
	for i, c := range cases {
		c := c
		t.Run(c.label, func(t *testing.T) {
			if testing.Short() && i > 0 {
				t.Skip("one differential case in -short mode")
			}
			oracle, memo := chainStore(c), chainStore(c)
			reusedTotal := advanceBoth(t, memo, oracle)
			assertChainsEqual(t, oracle, memo)

			// The equality must not be vacuous: the memoized chain has to
			// have actually reused artifacts.
			if reusedTotal == 0 {
				t.Error("memoized chain reused zero nodes — the differential proof proved nothing")
			}
			_, reused, _, _ := memo.IncrementalCounters()
			if int(reused) != reusedTotal {
				t.Errorf("cumulative reuse counter %d != summed per-generation stats %d", reused, reusedTotal)
			}
			if c.rates != churn.DefaultRates() {
				return
			}
			defaultRan = true
			for gen := 1; gen <= chainGens; gen++ {
				g, _ := memo.Lookup(gen)
				if g.Stats.GraphReused && !slices.Contains(g.Stats.ReusedNodes, "topology") {
					cutoffAdoptions++
				}
			}
		})
	}
	if defaultRan && cutoffAdoptions == 0 {
		t.Error("no default-churn generation adopted its parent's graph behind a rebuilt topology: " +
			"the output cutoff went untested")
	}
}

// TestIncrementalHijackChainByteIdentical extends the differential
// proof to adversarial chains: with seeded hijack campaigns active
// (including a partially ROV-gated case), the memoized chain must still
// match the oracle at every surface — now including /v1/hijacks — while
// continuing to reuse artifacts.
func TestIncrementalHijackChainByteIdentical(t *testing.T) {
	cases := []chainCase{
		{seed: 42, rates: churn.DefaultRates(), workers: 4, hijack: 0.75, label: "seed42-hijack-open"},
		{seed: 7, rates: heavyRates(), workers: 2, hijack: 1.0, rov: 0.5, label: "seed7-hijack-rov"},
	}
	for i, c := range cases {
		c := c
		t.Run(c.label, func(t *testing.T) {
			if testing.Short() && i > 0 {
				t.Skip("one adversarial differential case in -short mode")
			}
			oracle, memo := chainStore(c), chainStore(c)
			reusedTotal := advanceBoth(t, memo, oracle)
			assertChainsEqual(t, oracle, memo)
			if reusedTotal == 0 {
				t.Error("adversarial memoized chain reused zero nodes — the proof proved nothing")
			}
			// The battery must exercise a live adversary, not an empty report.
			detections := 0
			for gen := 0; gen <= chainGens; gen++ {
				g, _ := oracle.Lookup(gen)
				detections += len(g.Result.Hijacks.Detections)
			}
			if detections == 0 {
				t.Error("no generation detected any origin change — adversarial case is vacuous")
			}
		})
	}
}

// TestIncrementalZeroChurnSkipsEverything is the first metamorphic
// property: when a generation's churn step moves nothing, the rebuild
// must execute zero pipeline nodes and adopt the
// compiled index and graph wholesale — and still serve the identical
// dataset under a fresh generation number.
func TestIncrementalZeroChurnSkipsEverything(t *testing.T) {
	s := New(Options{
		Base:  stateowned.Config{Seed: 42, Scale: testScale},
		Rates: negligibleRates(),
	})
	g0 := s.Current()
	if n := g0.Stats.NodesReused; n != 0 {
		t.Fatalf("generation 0 reused %d nodes with no predecessor", n)
	}

	var executed []string
	var mu sync.Mutex
	restore := stateowned.SetBuildHook(func(node string) {
		mu.Lock()
		executed = append(executed, node)
		mu.Unlock()
	})
	defer restore()
	g1 := s.Advance()
	if g1 == nil {
		t.Fatalf("zero-churn advance quarantined: %v", s.Degraded())
	}
	if len(executed) != 0 {
		t.Errorf("zero-churn rebuild executed pipeline nodes %v, want none", executed)
	}
	if len(g1.Events) != 0 {
		t.Fatalf("negligible rates still produced %d churn events", len(g1.Events))
	}
	st := g1.Stats
	if st.NodesTotal == 0 || st.NodesReused != st.NodesTotal {
		t.Errorf("stats = %+v, want every one of the nodes reused", st)
	}
	if !st.IndexReused || !st.GraphReused {
		t.Errorf("index/graph reuse = %v/%v, want both adopted on a zero-churn step", st.IndexReused, st.GraphReused)
	}
	if g1.Index != g0.Index {
		t.Error("zero-churn generation compiled a new index instead of adopting the predecessor's")
	}
	if g1.View().Graph != g0.View().Graph {
		t.Error("zero-churn generation compiled a new graph instead of adopting the predecessor's")
	}
	if !bytes.Equal(exportDataset(t, g0), exportDataset(t, g1)) {
		t.Error("zero-churn generations differ in dataset bytes")
	}
}

// TestIncrementalZeroChurnWithHijackSkipsEverything pins the hijack
// node's fingerprint discipline: the adversary knobs are part of the
// config fingerprint and the plan is a pure function of the unchanged
// world, so a zero-churn advance must execute zero nodes and adopt the
// previous detection report — even with campaigns active.
func TestIncrementalZeroChurnWithHijackSkipsEverything(t *testing.T) {
	s := New(Options{
		Base:  stateowned.Config{Seed: 42, Scale: testScale, HijackSeverity: 0.75, ROVFraction: 0.25},
		Rates: negligibleRates(),
	})
	g0 := s.Current()
	if len(g0.Result.Hijacks.Detections) == 0 {
		t.Fatal("severity 0.75 detected nothing at generation 0; test is vacuous")
	}

	var executed []string
	var mu sync.Mutex
	restore := stateowned.SetBuildHook(func(node string) {
		mu.Lock()
		executed = append(executed, node)
		mu.Unlock()
	})
	defer restore()
	g1 := s.Advance()
	if g1 == nil {
		t.Fatalf("zero-churn advance quarantined: %v", s.Degraded())
	}
	if len(executed) != 0 {
		t.Errorf("zero-churn hijack rebuild executed pipeline nodes %v, want none", executed)
	}
	if st := g1.Stats; st.NodesTotal == 0 || st.NodesReused != st.NodesTotal {
		t.Errorf("stats = %+v, want every node (including hijack) reused", st)
	}
	if g1.View().Hijacks != g0.View().Hijacks {
		t.Error("zero-churn generation rebuilt the detection report instead of adopting it")
	}
}

// TestIncrementalFullChurnDegeneratesToRebuild is the second
// metamorphic property: under saturation churn rates every
// ownership-reading node must go dirty — the memoized chain degenerates
// to (and stays byte-identical with) the memo-less oracle, and the
// compiled index cannot be adopted.
func TestIncrementalFullChurnDegeneratesToRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation churn grows the world on every generation")
	}
	c := chainCase{seed: 7, rates: churn.Rates{Privatization: 1, Nationalization: 1, NewSubsidiary: 1}, workers: 2}
	oracle, memo := chainStore(c), chainStore(c)
	assertLiveTablesEqual(t, oracle, memo)
	for gen := 1; gen <= chainGens; gen++ {
		if memo.Advance() == nil {
			t.Fatalf("saturation advance to generation %d quarantined: %v", gen, memo.Degraded())
		}
		advanceOracle(t, oracle)
		assertLiveTablesEqual(t, oracle, memo)
		st := memo.Current().Stats
		reused := map[string]bool{}
		for _, n := range st.ReusedNodes {
			reused[n] = true
		}
		for _, n := range []string{"orbis", "docs", "stage1", "stage2", "stage3"} {
			if reused[n] {
				t.Errorf("generation %d: ownership-reading node %q reused under saturation churn", gen, n)
			}
		}
		if st.IndexReused {
			t.Errorf("generation %d: index adopted although the dataset was rebuilt", gen)
		}
	}
	if memo.Current().TotalEvents == 0 {
		t.Fatal("saturation rates produced no churn — the degeneration test tested nothing")
	}
	assertChainsEqual(t, oracle, memo)
}

// TestIncrementalPinnedReadsDuringAdvance is the race regression test:
// reused artifacts are shared between consecutive generations, and each
// generation's world shares its parent's structure and clones its
// parent's ownership graph while /v1/diff reads it, so a rebuild
// mutating anything it shares would be visible to a reader pinned to
// the previous generation — under -race, as a report; under any mode,
// as a byte diff against the pre-advance observation. The same bytes
// must come back once the generation is superseded and its ring slot
// trimmed to what serving reads, its control table in place of its
// world (assertEvolvedAndTrimmed).
func TestIncrementalPinnedReadsDuringAdvance(t *testing.T) {
	s := New(Options{
		Base:   stateowned.Config{Seed: 21, Scale: testScale},
		Retain: chainGens + 1,
	})
	hs := serve.NewDynamic(s.Source(), serve.Options{CacheSize: 0}) // no cache: every read hits the index
	srv := httptest.NewServer(hs)
	defer srv.Close()

	g0 := s.Current()
	fp0 := g0.World.FingerprintOwnership()
	paths := append(probePaths(t, g0), "/v1/diff?from=0&to=0")
	before := make(map[string]string, len(paths))
	for _, p := range paths {
		_, before[p] = fetch(t, srv, pin(p, 0))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	readErrs := make([]error, 4)
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := paths[i%len(paths)]
				resp, err := srv.Client().Get(srv.URL + pin(p, 0))
				if err != nil {
					readErrs[c] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					readErrs[c] = err
					return
				}
				if string(body) != before[p] {
					readErrs[c] = fmt.Errorf("pinned gen-0 read of %s changed mid-advance", p)
					return
				}
			}
		}()
	}
	published := []*Generation{g0}
	for gen := 1; gen <= chainGens; gen++ {
		g := s.Advance()
		if g == nil {
			t.Fatalf("advance %d quarantined: %v", gen, s.Degraded())
		}
		published = append(published, g)
	}
	close(done)
	wg.Wait()
	for c, err := range readErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", c, err)
		}
	}
	// Post-advance, gen 0's bytes must still be exactly the pre-advance
	// observation even though later generations share its artifacts.
	for _, p := range paths {
		if _, body := fetch(t, srv, pin(p, 0)); body != before[p] {
			t.Errorf("pinned gen-0 read of %s drifted after %d memoized advances", p, chainGens)
		}
	}
	assertEvolvedAndTrimmed(t, s, published, fp0)
}

// sameMap reports whether two maps are one map.
func sameMap(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

// assertEvolvedAndTrimmed checks the shape a chain of advances leaves
// behind. published holds each generation as Advance returned it, the
// first one's ownership fingerprinted as fp0 while it was live. Every
// later published world shares the first's structure and owns its
// ownership graph, and building them left the first's ownership
// untouched while the chain's moved. Every superseded ring slot is a
// trimmed copy — no world, no memo, no substrates; the control table
// and everything serving reads kept — while the published generation
// is unchanged.
func assertEvolvedAndTrimmed(t *testing.T, s *Store, published []*Generation, fp0 sched.Fingerprint) {
	t.Helper()
	w0 := published[0].World
	parent := w0
	for _, g := range published[1:] {
		w := g.World
		if !sameMap(w.Operators, w0.Operators) || !sameMap(w.ASes, w0.ASes) || !sameMap(w.Profiles, w0.Profiles) {
			t.Errorf("generation %d's world was regenerated, not evolved from its live parent's", g.Gen)
		}
		if w.Graph == parent.Graph {
			t.Errorf("generation %d evolved its parent's ownership graph in place", g.Gen)
		}
		parent = w
	}
	if w0.FingerprintOwnership() != fp0 {
		t.Error("later generations' builds changed the first generation's ownership")
	}
	if parent.FingerprintOwnership() == fp0 {
		t.Error("ownership never moved along the chain; the checks above are vacuous")
	}

	live := published[len(published)-1]
	if s.Current() != live {
		t.Fatal("the live generation is not the last one published")
	}
	for _, g := range published[:len(published)-1] {
		r, st := s.Lookup(g.Gen)
		if st != serve.GenOK {
			t.Fatalf("generation %d not retained", g.Gen)
		}
		if r == g {
			t.Fatalf("superseded generation %d kept its ring slot untrimmed", g.Gen)
		}
		if g.World == nil || g.Result.Memo == nil || g.Result.Topology == nil {
			t.Errorf("trimming mutated the published generation %d", g.Gen)
		}
		res := r.Result
		if r.World != nil || res.World != nil || res.Memo != nil || res.Topology != nil || res.Geo != nil ||
			res.WHOIS != nil || res.Orbis != nil || res.Docs != nil || res.Candidates != nil || res.Confirmation != nil {
			t.Errorf("superseded generation %d still carries its world or build state", g.Gen)
		}
		if r.controls == nil || r.controls != g.controls || r.Index != g.Index || res.Dataset != g.Result.Dataset ||
			res.Index() != g.Index || res.Graph() != g.View().Graph {
			t.Errorf("superseded generation %d lost something serving or its audits read", g.Gen)
		}
	}
	if live.World == nil || live.controls == nil || live.Result.Memo == nil {
		t.Error("the live generation has no world, table or memo to build and audit its successor from")
	}
}
