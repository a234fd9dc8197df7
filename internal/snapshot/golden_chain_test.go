package snapshot

// Golden pin of the seed-42 generation chain. The fixture records one
// compact row per generation — churn event counts, dataset shape, the
// number of memo-restored build nodes, and a SHA-256 of the exported
// dataset bytes. Any cross-PR drift in world generation, churn
// derivation, fingerprinting or artifact reuse shows up as a readable
// first-diff naming the generation and field that moved.
//
// Regenerate deliberately with:
//
//	go test ./internal/snapshot -run GoldenChain -update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"stateowned"
)

var updateChain = flag.Bool("update", false, "rewrite the golden chain fixture from the current build")

// chainRow is one generation's fixture row.
type chainRow struct {
	Gen         int    `json:"gen"`
	Events      int    `json:"churn_events"`
	TotalEvents int    `json:"total_churn_events"`
	Orgs        int    `json:"orgs"`
	ASNs        int    `json:"asns"`
	Minority    int    `json:"minority"`
	NodesReused int    `json:"nodes_reused"`
	DatasetSHA  string `json:"dataset_sha256"`
}

const goldenChainPath = "testdata/golden_chain_seed42.json"

// buildChainRows advances a fresh store through the chain and
// summarizes each generation.
func buildChainRows(t *testing.T) []chainRow {
	t.Helper()
	s := New(Options{
		Base:   stateowned.Config{Seed: 42, Scale: testScale},
		Retain: chainGens + 1,
	})
	for gen := 1; gen <= chainGens; gen++ {
		if s.Advance() == nil {
			t.Fatalf("advance to generation %d quarantined: %v", gen, s.Degraded())
		}
	}
	rows := make([]chainRow, 0, chainGens+1)
	for gen := 0; gen <= chainGens; gen++ {
		g, st := s.Lookup(gen)
		if st != 0 {
			t.Fatalf("generation %d not retained", gen)
		}
		sum := sha256.Sum256(exportDataset(t, g))
		rows = append(rows, chainRow{
			Gen:         gen,
			Events:      len(g.Events),
			TotalEvents: g.TotalEvents,
			Orgs:        g.Index.NumOrgs(),
			ASNs:        g.Index.NumASNs(),
			Minority:    g.Index.NumMinority(),
			NodesReused: g.Stats.NodesReused,
			DatasetSHA:  hex.EncodeToString(sum[:]),
		})
	}
	return rows
}

// TestGoldenChainSeed42 compares the current chain against
// the checked-in fixture, reporting the first divergent generation and
// field rather than a blob diff.
func TestGoldenChainSeed42(t *testing.T) {
	got := buildChainRows(t)
	if *updateChain {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshaling fixture: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenChainPath), 0o755); err != nil {
			t.Fatalf("creating testdata: %v", err)
		}
		if err := os.WriteFile(goldenChainPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("writing fixture: %v", err)
		}
		t.Logf("rewrote %s (%d generations)", goldenChainPath, len(got))
		return
	}
	raw, err := os.ReadFile(goldenChainPath)
	if err != nil {
		t.Fatalf("missing golden chain (regenerate with `go test ./internal/snapshot -run GoldenChain -update`): %v", err)
	}
	var want []chainRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenChainPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("chain length %d, fixture has %d generations", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		diff := func(field string, gv, wv any) {
			t.Errorf("generation %d: %s = %v, fixture says %v\nif the change is intentional, regenerate with `go test ./internal/snapshot -run GoldenChain -update`",
				w.Gen, field, gv, wv)
		}
		switch {
		case g.Events != w.Events:
			diff("churn_events", g.Events, w.Events)
		case g.TotalEvents != w.TotalEvents:
			diff("total_churn_events", g.TotalEvents, w.TotalEvents)
		case g.Orgs != w.Orgs:
			diff("orgs", g.Orgs, w.Orgs)
		case g.ASNs != w.ASNs:
			diff("asns", g.ASNs, w.ASNs)
		case g.Minority != w.Minority:
			diff("minority", g.Minority, w.Minority)
		case g.NodesReused != w.NodesReused:
			diff("nodes_reused", g.NodesReused, w.NodesReused)
		case g.DatasetSHA != w.DatasetSHA:
			diff("dataset_sha256", g.DatasetSHA, w.DatasetSHA)
		}
		if t.Failed() {
			return // first diff only: the earliest divergence is the cause
		}
	}
}
