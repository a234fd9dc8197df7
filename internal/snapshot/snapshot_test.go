package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"stateowned"
	"stateowned/internal/churn"
	"stateowned/internal/rng"
	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// testScale keeps the per-generation pipeline builds fast; the golden
// test below runs the full goldenScale world once.
const testScale = 0.05

func exportDataset(t *testing.T, g *Generation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Result.Dataset.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestGenerationZeroMatchesGolden pins the store's floor: generation 0
// is the pristine pipeline run, byte-identical to the repo's golden
// dataset for the golden configuration. Churn only enters at
// generation 1.
func TestGenerationZeroMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden-scale build")
	}
	s := New(Options{Base: stateowned.Config{Seed: 42, Scale: 0.08}})
	got := exportDataset(t, s.Current())
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_seed42.json"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("generation 0 diverges from testdata/golden_seed42.json")
	}
}

// offlineChurnSeeds replicates the store's seed derivation from first
// principles, so the differential test does not lean on store
// internals.
func offlineChurnSeeds(baseSeed uint64, gens int) []uint64 {
	base := rng.New(rng.New(baseSeed).Sub("churn-schedule").Uint64())
	out := make([]uint64, gens+1)
	for i := 1; i <= gens; i++ {
		out[i] = base.Sub(fmt.Sprintf("generation/%d", i)).Uint64()
	}
	return out
}

// TestDiffMatchesOfflineAudit is the differential acceptance test:
// for seeds {7, 21, 42}, the /v1/diff HTTP answer between two
// generations is byte-for-byte the JSON of churn.RunAudit computed
// offline — old generation's published dataset audited against the new
// generation's independently re-derived ground truth.
func TestDiffMatchesOfflineAudit(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if testing.Short() && seed != 7 {
				t.Skip("one seed in -short mode")
			}
			base := stateowned.Config{Seed: seed, Scale: testScale}
			s := New(Options{Base: base})
			s.Advance()
			s.Advance()

			srv := httptest.NewServer(serve.NewDynamic(s.Source(), serve.Options{}))
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/v1/diff?from=0&to=2")
			if err != nil {
				t.Fatalf("GET /v1/diff: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("diff status %d", resp.StatusCode)
			}
			var envelope struct {
				From  int             `json:"from"`
				To    int             `json:"to"`
				Audit json.RawMessage `json:"audit"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatalf("decoding diff envelope: %v", err)
			}
			var served bytes.Buffer
			if err := json.Compact(&served, envelope.Audit); err != nil {
				t.Fatalf("compacting served audit: %v", err)
			}

			// Offline: generation 0's dataset is the plain pipeline run;
			// generation 2's world is Generate + two Evolve steps with the
			// derived seeds. No store code involved beyond the public seed
			// contract.
			run0 := stateowned.Run(base)
			w2 := world.Generate(world.Config{Seed: seed, Scale: testScale})
			seeds := offlineChurnSeeds(seed, 2)
			for i := 1; i <= 2; i++ {
				churn.Evolve(w2, 1, seeds[i], churn.DefaultRates())
			}
			offline, err := json.Marshal(churn.RunAudit(run0.Dataset, w2))
			if err != nil {
				t.Fatalf("marshaling offline audit: %v", err)
			}
			if !bytes.Equal(served.Bytes(), offline) {
				t.Fatalf("served diff diverges from offline audit\nserved:  %s\noffline: %s",
					served.Bytes(), offline)
			}
		})
	}
}

// TestRetentionRing exercises pinning, eviction and the status
// contract end to end against a small ring.
func TestRetentionRing(t *testing.T) {
	s := New(Options{Base: stateowned.Config{Seed: 7, Scale: testScale}, Retain: 2})
	var evicted []int
	s.OnEvict(func(gen int) { evicted = append(evicted, gen) })
	for i := 0; i < 3; i++ {
		s.Advance()
	}

	if got := s.Current().Gen; got != 3 {
		t.Fatalf("current generation = %d, want 3", got)
	}
	if got := s.Swaps(); got != 4 {
		t.Fatalf("swaps = %d, want 4", got)
	}
	if got := s.Retained(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("retained = %v, want [2 3]", got)
	}
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 1 {
		t.Fatalf("evicted = %v, want [0 1]", evicted)
	}

	cases := []struct {
		n    int
		want serve.GenStatus
	}{{0, serve.GenEvicted}, {1, serve.GenEvicted}, {2, serve.GenOK}, {3, serve.GenOK}, {4, serve.GenUnknown}}
	for _, c := range cases {
		if _, st := s.Lookup(c.n); st != c.want {
			t.Errorf("Lookup(%d) status = %d, want %d", c.n, st, c.want)
		}
	}

	// Provenance rides along on the view.
	v := s.Source().Current()
	if v.Provenance.Origin != "generational" || v.Provenance.Seed != 7 || v.Provenance.ChurnSeed == 0 {
		t.Fatalf("provenance = %+v", v.Provenance)
	}
	if v.Gen != 3 {
		t.Fatalf("view generation = %d", v.Gen)
	}
}

// TestGenerationsWorkerIndependent pins the determinism obligation the
// whole design rests on: a generation's dataset is identical no matter
// how many workers the pipeline rebuild used.
func TestGenerationsWorkerIndependent(t *testing.T) {
	base := stateowned.Config{Seed: 21, Scale: testScale}
	serialCfg, parallelCfg := base, base
	serialCfg.Workers = 1
	parallelCfg.Workers = 8
	serial := New(Options{Base: serialCfg})
	parallel := New(Options{Base: parallelCfg})
	serial.Advance()
	parallel.Advance()
	for gen := 0; gen <= 1; gen++ {
		gs, _ := serial.Lookup(gen)
		gp, _ := parallel.Lookup(gen)
		if !bytes.Equal(exportDataset(t, gs), exportDataset(t, gp)) {
			t.Fatalf("generation %d differs between 1 and 8 workers", gen)
		}
		if len(gs.Events) != len(gp.Events) {
			t.Fatalf("generation %d churn events differ: %d vs %d",
				gen, len(gs.Events), len(gp.Events))
		}
	}
}

// TestStoreRejectsPrebuiltWorld pins the Base.World guard.
func TestStoreRejectsPrebuiltWorld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a non-nil Base.World")
		}
	}()
	w := world.Generate(world.Config{Seed: 1, Scale: 0.02})
	New(Options{Base: stateowned.Config{Seed: 1, Scale: 0.02, World: w}})
}

// TestCacheNeverReplaysAnotherRequestsError walks pairs of requests
// that share one response-cache key but spell their input differently
// — leading zeros, letter case — across the record, graph and hijack
// planes of a store-backed server. Asked right after its twin, each
// request must get exactly what an uncached server answers it: a 400
// quotes the raw input, so it may never be replayed for the twin.
func TestCacheNeverReplaysAnotherRequestsError(t *testing.T) {
	s := New(Options{Base: stateowned.Config{Seed: 42, Scale: testScale}})
	cached := serve.NewDynamic(s.Source(), serve.Options{CacheSize: 64})
	uncached := serve.NewDynamic(s.Source(), serve.Options{})
	a := s.Current().Result.Dataset.AllASNs()[0]
	pairs := [][2]string{
		{"/v1/asn/00", "/v1/asn/0"},
		{"/v1/country/usa", "/v1/country/USA"},
		{"/v1/graph/neighbors/00", "/v1/graph/neighbors/0"},
		{"/v1/graph/upstreams/00", "/v1/graph/upstreams/0"},
		{"/v1/graph/cone/00", "/v1/graph/cone/0"},
		{fmt.Sprintf("/v1/graph/neighbors/%d?class=Transit", a), fmt.Sprintf("/v1/graph/neighbors/%d?class=transit", a)},
		{fmt.Sprintf("/v1/graph/path?from=00&to=%d", a), fmt.Sprintf("/v1/graph/path?from=0&to=%d", a)},
		{fmt.Sprintf("/v1/graph/path?from=%d&to=00", a), fmt.Sprintf("/v1/graph/path?from=%d&to=0", a)},
		{"/v1/hijacks?victim=00", "/v1/hijacks?victim=0"},
		{"/v1/hijacks?cc=usa", "/v1/hijacks?cc=USA"},
	}
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	for _, p := range pairs {
		if first := get(cached, p[0]); first.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want the 400 the pair is about", p[0], first.Code)
		}
		got, want := get(cached, p[1]), get(uncached, p[1])
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("GET %s after %s: cached %d %s, uncached %d %s",
				p[1], p[0], got.Code, got.Body, want.Code, want.Body)
		}
	}
}
