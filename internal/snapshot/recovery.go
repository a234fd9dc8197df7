package snapshot

import (
	"bytes"
	"fmt"

	"stateowned"
	"stateowned/internal/churn"
	"stateowned/internal/durable"
	"stateowned/internal/expand"
	"stateowned/internal/runner"
	"stateowned/internal/serve"
)

// adoptRecovered is New's warm-start path: walk the archive's verified
// generations newest-first, restore a contiguous chain of up to Retain
// of them, and publish the chain oldest-first so the ring, the
// generation floor and ?gen= pinning come back exactly as the pre-crash
// process retained them. Returns false when nothing was adopted (cold
// start).
//
// Verification is layered: the archive already proved every adopted
// segment's checksum; restoreGeneration additionally proves the dataset
// bytes re-import and re-export to the identical bytes before anything
// is served. A generation failing that self-check is quarantined with
// the structured reason, exactly like a torn segment:
//
//   - if it would have been the newest generation, the next-older
//     verified one becomes last-known-good instead;
//   - if it sits under an already-restored newer generation, the chain
//     stops there — the ring must stay contiguous for pinning, so older
//     history is dropped from memory (it stays on disk).
func (s *Store) adoptRecovered() bool {
	if s.archive == nil {
		return false
	}
	rec := s.archive.Recovered()
	gens := rec.Generations
	var chain []*Generation // newest first
	for i := len(gens) - 1; i >= 0 && len(chain) < s.opts.Retain; i-- {
		rg := gens[i]
		if len(chain) > 0 && rg.Record.Gen != chain[len(chain)-1].Gen-1 {
			break // gap in the archive: the ring cannot pin across it
		}
		g, err := s.restoreGeneration(rg)
		if err != nil {
			s.archive.NoteQuarantine(rg.Record.Gen, err.Error())
			if len(chain) > 0 {
				break
			}
			continue // keep looking for a servable newest generation
		}
		chain = append(chain, g)
	}
	if len(chain) == 0 {
		return false
	}
	s.recSpans = map[[2]int]*churn.Audit{}
	for i := len(chain) - 1; i >= 0; i-- {
		s.publish(chain[i])
	}
	// Adopt the archived diff spans for every retained pair; spans
	// referencing generations outside the ring are kept too — harmless,
	// Lookup gates what is reachable.
	for i := len(chain) - 1; i >= 0; i-- {
		for _, sp := range chain[i].recSpans {
			audit := sp.Audit
			s.recSpans[[2]int{sp.From, sp.To}] = &audit
		}
	}
	s.recoveredGen.Store(int64(chain[0].Gen))
	return true
}

// restoreGeneration rebuilds a servable Generation from one verified
// archive entry. The dataset self-check is the "never serve unverified
// bytes" gate above the checksum layer: the archived bytes must decode,
// and re-encoding the decoded dataset must reproduce them exactly —
// then the recompiled index (BuildIndex is a pure function of the
// dataset) answers every record-plane query byte-identically to the
// pre-crash process.
func (s *Store) restoreGeneration(rg durable.RecoveredGen) (*Generation, error) {
	rec := rg.Record
	ds, err := expand.Import(bytes.NewReader(rg.Dataset))
	if err != nil {
		return nil, fmt.Errorf("dataset import failed: %v", err)
	}
	var out bytes.Buffer
	if err := ds.Export(&out); err != nil {
		return nil, fmt.Errorf("dataset re-export failed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), rg.Dataset) {
		return nil, fmt.Errorf("dataset re-export mismatch: archived bytes would not serve verbatim")
	}
	idx := serve.BuildIndex(ds)
	health := runner.RestoreHealth(rec.Health)
	res := &stateowned.Result{Dataset: ds, Health: health, Hijacks: rec.Hijacks}
	res.AdoptIndex(idx)
	g := &Generation{
		Gen: rec.Gen, Result: res, Index: idx,
		Events: rec.Events, TotalEvents: rec.TotalEvents,
		Recovered: true,
		recSpans:  rec.Spans,
	}
	g.view = serve.View{
		Gen:        rec.Gen,
		Index:      idx,
		Health:     health,
		Provenance: rec.Provenance,
		Hijacks:    rec.Hijacks,
		// Graph stays nil: the topology plane is compiled process
		// memory, not archived bytes; /v1/graph/* answers 404 for this
		// generation until the next live build restores the plane.
	}
	return g, nil
}

// archiveCommit persists a freshly published generation: the verbatim
// dataset export, the health/provenance/hijack state its views serve,
// and the churn-audit spans against every retained generation — the
// /v1/diff answers a future recovery will serve when the control tables
// are gone.
func (s *Store) archiveCommit(g *Generation, retained []*Generation) {
	var data bytes.Buffer
	if err := g.Result.Dataset.Export(&data); err != nil {
		s.noteArchiveErr(fmt.Errorf("exporting generation %d: %w", g.Gen, err))
		return
	}
	var spans []durable.AuditSpan
	for _, f := range retained {
		if f.Result == nil || f.Result.Dataset == nil {
			continue
		}
		// (f → g): f's dataset audited against g's ground truth. g was
		// just built, so its control table is always present.
		if g.controls != nil {
			spans = append(spans, durable.AuditSpan{
				From: f.Gen, To: g.Gen,
				Audit: g.controls.Audit(f.Result.Dataset, g.view.Hijacks),
			})
		}
		// (g → f): only when f has a table (not itself recovered).
		if f.controls != nil && f.Gen != g.Gen {
			spans = append(spans, durable.AuditSpan{
				From: g.Gen, To: f.Gen,
				Audit: f.controls.Audit(g.Result.Dataset, f.view.Hijacks),
			})
		}
	}
	var health runner.HealthSnapshot
	if g.Result.Health != nil {
		health = g.Result.Health.Snapshot()
	}
	rec := &durable.Record{
		Gen:         g.Gen,
		Provenance:  g.view.Provenance,
		Health:      health,
		Hijacks:     g.view.Hijacks,
		Events:      g.Events,
		TotalEvents: g.TotalEvents,
		Spans:       spans,
	}
	if _, err := s.archive.Commit(rec, data.Bytes()); err != nil {
		s.noteArchiveErr(fmt.Errorf("archiving generation %d: %w", g.Gen, err))
	}
}

// noteArchiveErr records the most recent archive write failure for
// /readyz. The write-failure counter itself lives in the archive.
func (s *Store) noteArchiveErr(err error) {
	msg := err.Error()
	s.archiveErr.Store(&msg)
}

// recoveredSpan answers /v1/diff for a pair whose `to` generation is
// recovered (no control table): the audit archived when both
// generations were resident, byte-identical to what the pre-crash store
// served. Pairs with no archived span — they never coexisted — report
// false (404).
func (s *Store) recoveredSpan(from, to int) (*churn.Audit, bool) {
	a, ok := s.recSpans[[2]int{from, to}]
	return a, ok
}

// RecoveredGen reports the newest generation adopted from the archive
// at startup, or -1 for a cold start.
func (s *Store) RecoveredGen() int { return int(s.recoveredGen.Load()) }

// Archive exposes the durable archive (nil when the store is
// memory-only).
func (s *Store) Archive() *durable.Archive { return s.archive }

// DatasetSums returns gen → archived dataset fingerprint for every
// generation the archive currently holds — what fleet bootstrap
// compares across independently recovered shards. Nil without an
// archive.
func (s *Store) DatasetSums() map[int]string {
	if s.archive == nil {
		return nil
	}
	return s.archive.DatasetSums()
}
