package snapshot

// Proof battery for the durable generation archive's warm-start
// contract (ISSUE 10): a recovered store serves the record plane
// byte-identically to its pre-crash self; a crash at ANY filesystem
// operation of the archive write path recovers to a verified prefix of
// the committed history; arbitrary single-bit corruption is always
// quarantined, never served.
//
// Cost discipline: pipeline builds dominate test time, so the sweeps
// replay a once-built baseline's (record, dataset bytes) pairs straight
// through the archive layer — the exact byte streams and FS call
// sequence a store-driven commit produces — and spend real builds only
// where store-level behavior (warm start, resumed advance) is itself
// under test.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"stateowned"
	"stateowned/internal/durable"
	"stateowned/internal/serve"
)

// recoveryGens is the chain depth every recovery test builds: 3
// generations (0..2).
const recoveryGens = 2

// recoveryBase is the build config for recovery tests: hijack campaigns
// on, so the archived record carries a detection report and
// adversarial-joined audit spans, not just the dataset.
func recoveryBase(seed uint64) stateowned.Config {
	return stateowned.Config{Seed: seed, Scale: testScale, HijackSeverity: 0.75, ROVFraction: 0.25}
}

// archiveBaseline is one seed's pre-built archive content: the verbatim
// (record, dataset) pairs a store-driven chain committed, reusable to
// reconstruct the archive's FS state cheaply under fault injection.
type archiveBaseline struct {
	records  []*durable.Record
	datasets [][]byte
}

var (
	baselineMu  sync.Mutex
	baselineMap = map[uint64]*archiveBaseline{}
)

// recoveryBaseline builds (once per seed) a 3-generation archived chain
// through the real store and captures the archive's contents.
func recoveryBaseline(t *testing.T, seed uint64) *archiveBaseline {
	t.Helper()
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if b, ok := baselineMap[seed]; ok {
		return b
	}
	mem := durable.NewMemFS()
	a, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
	if err != nil {
		t.Fatalf("baseline archive: %v", err)
	}
	s := New(Options{Base: recoveryBase(seed), Retain: 4, Archive: a})
	for g := 1; g <= recoveryGens; g++ {
		if s.Advance() == nil {
			t.Fatalf("baseline advance to %d: %v", g, s.Degraded())
		}
	}
	if c := a.Counters(); c.WriteFailures != 0 || c.Writes != recoveryGens+1 {
		t.Fatalf("baseline archive counters off: %+v", c)
	}
	// Reopen to capture exactly what a recovery reads.
	b2, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
	if err != nil {
		t.Fatalf("baseline reopen: %v", err)
	}
	base := &archiveBaseline{}
	for _, rg := range b2.Recovered().Generations {
		base.records = append(base.records, rg.Record)
		base.datasets = append(base.datasets, rg.Dataset)
	}
	if len(base.records) != recoveryGens+1 {
		t.Fatalf("baseline recovered %d generations, want %d", len(base.records), recoveryGens+1)
	}
	// The archived bytes are the live store's export, verbatim.
	for g := 0; g <= recoveryGens; g++ {
		lg, st := s.Lookup(g)
		if st != serve.GenOK {
			t.Fatalf("baseline generation %d not retained", g)
		}
		if !bytes.Equal(base.datasets[g], exportDataset(t, lg)) {
			t.Fatalf("baseline generation %d: archived bytes differ from live export", g)
		}
	}
	baselineMap[seed] = base
	return base
}

// replayBaseline commits the baseline's generations through a fresh
// archive over fs, stopping at the first error (an injected fault).
func replayBaseline(base *archiveBaseline, fs durable.FS) error {
	a, err := durable.Open(durable.Options{FS: fs, Dir: "arch"})
	if err != nil {
		return err
	}
	for i, rec := range base.records {
		if _, err := a.Commit(rec, base.datasets[i]); err != nil {
			return err
		}
	}
	return nil
}

// recordPlanePaths is the HTTP battery every generation must answer
// byte-identically across a crash/recover cycle.
func recordPlanePaths(t *testing.T, g *Generation) []string {
	t.Helper()
	var paths []string
	for _, p := range probePaths(t, g) {
		if strings.HasPrefix(p, "/v1/graph/") {
			continue // the graph plane is process memory; 404 after recovery
		}
		paths = append(paths, p)
	}
	return paths
}

// graphPlanePaths is the complement: served pre-crash, 404 post-crash
// until the next live build.
func graphPlanePaths(t *testing.T, g *Generation) []string {
	t.Helper()
	var paths []string
	for _, p := range probePaths(t, g) {
		if strings.HasPrefix(p, "/v1/graph/") {
			paths = append(paths, p)
		}
	}
	return paths
}

// TestWarmStartByteIdentity is the warm-start contract end to end:
// build an archived chain, kill the process (nothing outlives the
// filesystem), boot a fresh store over the same directory, and compare
// every record-plane surface of every retained generation byte for
// byte — then resume the reload cadence and prove the next built
// generation equals the one the dead process would have built.
func TestWarmStartByteIdentity(t *testing.T) {
	mem := durable.NewMemFS()
	a1, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
	if err != nil {
		t.Fatalf("archive: %v", err)
	}
	opts := Options{Base: recoveryBase(42), Retain: 4, Archive: a1}
	s1 := New(opts)
	for g := 1; g <= recoveryGens; g++ {
		if s1.Advance() == nil {
			t.Fatalf("advance to %d: %v", g, s1.Degraded())
		}
	}
	if s1.RecoveredGen() != -1 {
		t.Fatalf("cold start reported recovered generation %d", s1.RecoveredGen())
	}

	srv1 := httptest.NewServer(serve.NewDynamic(s1.Source(), serve.Options{}))
	defer srv1.Close()
	g0, _ := s1.Lookup(0)
	recPaths := recordPlanePaths(t, g0)
	graphPaths := graphPlanePaths(t, g0)

	type probe struct {
		status int
		body   string
	}
	pre := map[string]probe{}
	for gen := 0; gen <= recoveryGens; gen++ {
		for _, p := range recPaths {
			pp := pin(p, gen)
			st, body := fetch(t, srv1, pp)
			pre[pp] = probe{st, body}
		}
	}
	for from := 0; from <= recoveryGens; from++ {
		for to := 0; to <= recoveryGens; to++ {
			if from == to {
				continue
			}
			p := fmt.Sprintf("/v1/diff?from=%d&to=%d", from, to)
			st, body := fetch(t, srv1, p)
			pre[p] = probe{st, body}
		}
	}

	// The crash: the process dies, the disk survives as fsync left it.
	mem.Crash(0)

	a2, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if got := len(a2.Recovered().Generations); got != recoveryGens+1 {
		t.Fatalf("recovered %d generations, want %d (quarantined %+v)",
			got, recoveryGens+1, a2.Recovered().Quarantined)
	}
	opts.Archive = a2
	s2 := New(opts)
	if s2.RecoveredGen() != recoveryGens {
		t.Fatalf("RecoveredGen = %d, want %d", s2.RecoveredGen(), recoveryGens)
	}
	if cur := s2.Current(); cur.Gen != recoveryGens || !cur.Recovered {
		t.Fatalf("current = gen %d (recovered=%v), want recovered gen %d", cur.Gen, cur.Recovered, recoveryGens)
	}
	if got, want := fmt.Sprint(s2.Retained()), fmt.Sprint(s1.Retained()); got != want {
		t.Fatalf("retained ring %s, want %s", got, want)
	}

	srv2 := httptest.NewServer(serve.NewDynamic(s2.Source(), serve.Options{}))
	defer srv2.Close()
	for p, want := range pre {
		st, body := fetch(t, srv2, p)
		if st != want.status || body != want.body {
			t.Errorf("GET %s diverges after recovery\npre-crash (%d): %.300s\nrecovered (%d): %.300s",
				p, want.status, want.body, st, body)
		}
	}
	// Generation pinning survived: the X-Generation header names the
	// pinned generation exactly as before the crash.
	resp, err := srv2.Client().Get(srv2.URL + pin("/v1/dataset", recoveryGens))
	if err != nil {
		t.Fatalf("pinned dataset: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Generation"); got != fmt.Sprint(recoveryGens) {
		t.Errorf("X-Generation = %q, want %d", got, recoveryGens)
	}
	// The graph plane is honestly absent, not wrong: 404 with the
	// structured reason until the next live build.
	for _, p := range graphPaths {
		st, body := fetch(t, srv2, p)
		if st != 404 || !strings.Contains(body, "graph index unavailable") {
			t.Errorf("GET %s after recovery = %d %.120s, want 404 graph-unavailable", p, st, body)
		}
	}
	// /readyz and /metrics surface the recovery.
	var ready struct {
		Archive          bool   `json:"archive"`
		Recovered        bool   `json:"recovered"`
		RecoveredGen     int    `json:"recovered_gen"`
		SegmentsVerified uint64 `json:"segments_verified"`
	}
	_, body := fetch(t, srv2, "/readyz")
	if err := json.Unmarshal([]byte(body), &ready); err != nil {
		t.Fatalf("parsing /readyz: %v", err)
	}
	if !ready.Archive || !ready.Recovered || ready.RecoveredGen != recoveryGens || ready.SegmentsVerified != uint64(recoveryGens+1) {
		t.Errorf("/readyz recovery fields wrong: %+v (%s)", ready, body)
	}
	var metrics struct {
		Recovered     bool   `json:"recovered"`
		RecoveredGen  int    `json:"recovered_gen"`
		ArchiveWrites uint64 `json:"archive_writes"`
	}
	_, body = fetch(t, srv2, "/metrics")
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	if !metrics.Recovered || metrics.RecoveredGen != recoveryGens {
		t.Errorf("/metrics recovery fields wrong: %+v", metrics)
	}

	// Resume the cadence: both stores build the next generation; the
	// recovered store's build must be byte-identical to the survivor's
	// (generation content is a pure function of (Base, churn seed, g),
	// and recovery restored that function's inputs).
	next := recoveryGens + 1
	gLive := s1.Advance()
	gRec := s2.Advance()
	if gLive == nil || gRec == nil {
		t.Fatalf("post-recovery advance failed: live=%v recovered=%v (%v)", gLive, gRec, s2.Degraded())
	}
	if gRec.Gen != next || gRec.World == nil || gRec.Recovered {
		t.Fatalf("resumed generation %d malformed (world=%v recovered=%v)", gRec.Gen, gRec.World != nil, gRec.Recovered)
	}
	if !bytes.Equal(exportDataset(t, gLive), exportDataset(t, gRec)) {
		t.Errorf("resumed generation %d dataset differs from the uncrashed store's", next)
	}
	// The uncrashed store evolved its live parent's world by one step; the
	// recovered parent has no world, so the resumed store replayed the
	// chain from a fresh one. Both must reach the same ground truth.
	if gRec.World.FingerprintStructure() != gLive.World.FingerprintStructure() ||
		gRec.World.FingerprintOwnership() != gLive.World.FingerprintOwnership() {
		t.Errorf("resumed generation %d: the replayed world differs from the evolved one", next)
	}
	// The graph plane is back for the live-built generation...
	for _, p := range graphPaths {
		pp := pin(p, next)
		st1, b1 := fetch(t, srv1, pp)
		st2, b2 := fetch(t, srv2, pp)
		if st1 != st2 || b1 != b2 {
			t.Errorf("GET %s diverges on the resumed generation (%d vs %d)", pp, st1, st2)
		}
	}
	// ...and /v1/diff across the crash boundary: a recovered `from` with
	// a live `to` computes the audit live (to's world exists) and must
	// match the uncrashed store; a live `from` against a recovered `to`
	// has no archived span — those generations never coexisted before
	// the crash — and honestly 404s rather than fabricating an audit.
	liveTo := fmt.Sprintf("/v1/diff?from=%d&to=%d", recoveryGens, next)
	st1, b1 := fetch(t, srv1, liveTo)
	st2, b2 := fetch(t, srv2, liveTo)
	if st1 != st2 || b1 != b2 {
		t.Errorf("GET %s diverges after recovery: %d %.200s vs %d %.200s", liveTo, st1, b1, st2, b2)
	}
	recTo := fmt.Sprintf("/v1/diff?from=%d&to=%d", next, recoveryGens)
	if st, body := fetch(t, srv2, recTo); st != 404 {
		t.Errorf("GET %s = %d %.200s, want 404 (no archived span across the crash)", recTo, st, body)
	}
}

// TestRecoveryCrashPointSweep kills the archive writer at every
// filesystem operation of the commit sequence (ISSUE: "kill at every
// fault point"), for seeds {7, 21, 42} and torn-write severities
// {0, 0.5}, and proves recovery always lands on a verified, contiguous,
// byte-identical prefix of the committed chain — and that a store
// booting over the survivor state warm-starts on exactly that prefix.
func TestRecoveryCrashPointSweep(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = []uint64{42}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := recoveryBaseline(t, seed)
			// Count the replay's operations once.
			counter := durable.NewFaultFS(durable.NewMemFS())
			if err := replayBaseline(base, counter); err != nil {
				t.Fatalf("clean replay: %v", err)
			}
			totalOps := counter.Ops()

			stride := 1
			if seed != 42 {
				stride = 3 // full resolution on one seed, sampled on the others
			}
			if testing.Short() {
				stride = 2
			}
			for _, tornKeep := range []float64{0, 0.5} {
				for k := 0; k < totalOps; k += stride {
					mem := durable.NewMemFS()
					ffs := durable.NewFaultFS(mem)
					ffs.CrashAt = k
					err := replayBaseline(base, ffs)
					if k > 0 && err == nil {
						t.Fatalf("crash@%d: replay did not observe the crash", k)
					}
					mem.Crash(tornKeep)

					a, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
					if err != nil {
						// The crash predates a usable directory (e.g. during
						// MkdirAll/probe): a cold start, not a recovery bug.
						continue
					}
					rec := a.Recovered()
					if len(rec.Quarantined) != 0 {
						t.Fatalf("crash@%d torn=%v: crash damage quarantined instead of truncated: %+v",
							k, tornKeep, rec.Quarantined)
					}
					for i, rg := range rec.Generations {
						if rg.Record.Gen != i {
							t.Fatalf("crash@%d torn=%v: recovered gens not a contiguous prefix", k, tornKeep)
						}
						if !bytes.Equal(rg.Dataset, base.datasets[i]) {
							t.Fatalf("crash@%d torn=%v: generation %d bytes differ from pre-crash", k, tornKeep, i)
						}
					}
					if len(rec.Generations) == 0 {
						continue // empty archive → cold start, covered elsewhere
					}
					// A store over the survivor state warm-starts on the
					// newest verified generation and serves its bytes.
					s := New(Options{Base: recoveryBase(seed), Retain: 4, Archive: a})
					newest := len(rec.Generations) - 1
					if s.RecoveredGen() != newest || s.Current().Gen != newest {
						t.Fatalf("crash@%d torn=%v: warm start on gen %d/%d, want %d",
							k, tornKeep, s.RecoveredGen(), s.Current().Gen, newest)
					}
					for g := 0; g <= newest; g++ {
						lg, st := s.Lookup(g)
						if st != serve.GenOK {
							t.Fatalf("crash@%d torn=%v: generation %d not pinnable after recovery", k, tornKeep, g)
						}
						if !bytes.Equal(exportDataset(t, lg), base.datasets[g]) {
							t.Fatalf("crash@%d torn=%v: generation %d serves different bytes", k, tornKeep, g)
						}
					}
				}
			}
		})
	}
}

// TestRecoveryCorruptionSweep flips single bits across every archived
// file — segments and manifest — and proves recovery never adopts
// damaged bytes: every recovered generation is byte-identical to the
// baseline, everything else is quarantined (with a structured reason)
// or truncated away.
func TestRecoveryCorruptionSweep(t *testing.T) {
	base := recoveryBaseline(t, 42)
	files := []string{"arch/" + durable.ManifestName}
	for g := 0; g <= recoveryGens; g++ {
		files = append(files, fmt.Sprintf("arch/gen-%08d.seg", g))
	}
	for _, file := range files {
		file := file
		t.Run(strings.TrimPrefix(file, "arch/"), func(t *testing.T) {
			// Determine the file's length from one clean replay.
			probe := durable.NewMemFS()
			if err := replayBaseline(base, probe); err != nil {
				t.Fatalf("clean replay: %v", err)
			}
			n := probe.FileLen(file)
			if n <= 0 {
				t.Fatalf("file %s not present after replay", file)
			}
			offsets := []int{1, n / 5, 2 * n / 5, n / 2, 3 * n / 5, 4 * n / 5, n - 2}
			if testing.Short() {
				offsets = []int{1, n / 2, n - 2}
			}
			for _, off := range offsets {
				mem := durable.NewMemFS()
				if err := replayBaseline(base, mem); err != nil {
					t.Fatalf("replay: %v", err)
				}
				if !mem.FlipBit(file, off, 0x20) {
					t.Fatalf("FlipBit(%s, %d) missed", file, off)
				}
				a, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
				if err != nil {
					t.Fatalf("flip %s@%d: Open: %v", file, off, err)
				}
				rec := a.Recovered()
				for _, rg := range rec.Generations {
					if !bytes.Equal(rg.Dataset, base.datasets[rg.Record.Gen]) {
						t.Fatalf("flip %s@%d: recovery adopted corrupt bytes for generation %d",
							file, off, rg.Record.Gen)
					}
				}
				damaged := recoveryGens + 1 - len(rec.Generations)
				if damaged == 0 {
					t.Fatalf("flip %s@%d went entirely undetected", file, off)
				}
				for _, q := range rec.Quarantined {
					if q.Reason == "" {
						t.Fatalf("flip %s@%d: quarantine without a reason: %+v", file, off, q)
					}
				}
				// Manifest damage truncates (note), segment damage
				// quarantines (reason); either way the loss is accounted.
				if len(rec.Quarantined) == 0 && rec.ManifestNote == "" {
					t.Fatalf("flip %s@%d: %d generations silently missing", file, off, damaged)
				}
				if len(rec.Generations) == 0 {
					continue // nothing verified → cold start
				}
				// Warm start serves only the verified prefix.
				s := New(Options{Base: recoveryBase(42), Retain: 4, Archive: a})
				cur := s.Current()
				if !cur.Recovered {
					t.Fatalf("flip %s@%d: store did not warm start", file, off)
				}
				if !bytes.Equal(exportDataset(t, cur), base.datasets[cur.Gen]) {
					t.Fatalf("flip %s@%d: warm-started generation %d serves different bytes", file, off, cur.Gen)
				}
			}
		})
	}
}

// TestRecoveryArchiveWriteFailureDegrades: a dead disk after boot must
// cost durability, never availability — the store keeps publishing
// generations from memory and surfaces the failure on /readyz.
func TestRecoveryArchiveWriteFailureDegrades(t *testing.T) {
	mem := durable.NewMemFS()
	ffs := durable.NewFaultFS(mem)
	a, err := durable.Open(durable.Options{FS: ffs, Dir: "arch"})
	if err != nil {
		t.Fatalf("archive: %v", err)
	}
	s := New(Options{Base: recoveryBase(7), Retain: 4, Archive: a})
	ffs.CrashAt = ffs.Ops() // the disk dies now
	if s.Advance() == nil {
		t.Fatalf("advance quarantined by archive failure: %v", s.Degraded())
	}
	if s.Current().Gen != 1 {
		t.Fatalf("store did not publish past the dead disk (gen %d)", s.Current().Gen)
	}
	if c := a.Counters(); c.WriteFailures == 0 {
		t.Fatalf("dead disk not counted: %+v", c)
	}
	st := s.Source().ReloadStatus()
	if st.ArchiveWriteFailures == 0 || st.ArchiveLastError == "" {
		t.Fatalf("reload status hides the archive failure: %+v", st)
	}
	if st.Degraded {
		t.Fatalf("archive failure must not mark the reload plane degraded: %+v", st)
	}
}
