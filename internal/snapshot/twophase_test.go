package snapshot

import (
	"strings"
	"testing"
	"time"

	"stateowned"
	"stateowned/internal/serve"
)

// twoPhaseStore builds a small store for the stage/commit tests.
func twoPhaseStore(t *testing.T) *Store {
	t.Helper()
	return New(Options{Base: stateowned.Config{Seed: 7, Scale: testScale}, Retain: 4})
}

// TestStageHoldsUnpublished proves the core two-phase property: a
// staged generation is fully built and validated yet invisible to
// readers until Commit — and the commit itself changes no bytes, it
// only publishes what staging already proved.
func TestStageHoldsUnpublished(t *testing.T) {
	s := twoPhaseStore(t)
	var builds int
	s.SetBuildHook(func(int) { builds++ })
	if err := s.Stage(1); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if live := s.Current().Gen; live != 0 {
		t.Fatalf("staging published: live gen %d", live)
	}
	if got := s.StagedGen(); got != 1 {
		t.Fatalf("StagedGen() = %d, want 1", got)
	}
	if _, st := s.Lookup(1); st == serve.GenOK {
		t.Fatal("staged generation visible through Lookup before commit")
	}
	g, err := s.Commit(1)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if builds != 1 || g == nil || g.Gen != 1 || s.Current() != g {
		t.Fatalf("commit published something other than the staged build (builds %d)", builds)
	}
	if live := s.Current().Gen; live != 1 {
		t.Fatalf("live gen %d after commit", live)
	}
	if got := s.StagedGen(); got != -1 {
		t.Fatalf("StagedGen() = %d after commit, want -1", got)
	}
	if _, st := s.Lookup(1); st != serve.GenOK {
		t.Fatal("committed generation not in the retention ring")
	}
}

// TestStagedGenAnswersDuringStage proves the status probe never waits
// out a build: while a stage build is parked inside the pipeline,
// StagedGen answers at once with -1 (nothing staged yet) and the store
// reports the rebuild in flight; once the build finishes it reports the
// staged generation.
func TestStagedGenAnswersDuringStage(t *testing.T) {
	s := twoPhaseStore(t)
	parked, release := make(chan struct{}), make(chan struct{})
	s.SetBuildHook(func(int) {
		close(parked)
		<-release
	})
	staged := make(chan error, 1)
	go func() { staged <- s.Stage(1) }()
	<-parked

	answered := make(chan int, 1)
	go func() { answered <- s.StagedGen() }()
	select {
	case got := <-answered:
		if got != -1 {
			t.Errorf("StagedGen() = %d while the stage build runs, want -1", got)
		}
	case <-time.After(2 * time.Second):
		t.Error("StagedGen() blocked behind the running stage build")
	}
	if !s.Reloading() {
		t.Error("the parked stage build is not reported as reloading")
	}
	close(release)
	if err := <-staged; err != nil {
		t.Fatalf("stage: %v", err)
	}
	if got := s.StagedGen(); got != 1 {
		t.Fatalf("StagedGen() = %d after the stage, want 1", got)
	}
}

// TestStageIdempotent proves the re-ack paths the fleet coordinator's
// convergence depends on: staging an already-staged, already-live or
// older generation acks without rebuilding.
func TestStageIdempotent(t *testing.T) {
	s := twoPhaseStore(t)
	var builds int
	s.SetBuildHook(func(int) { builds++ })
	if err := s.Stage(1); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if err := s.Stage(1); err != nil {
		t.Fatalf("re-stage: %v", err)
	}
	if builds != 1 {
		t.Fatalf("%d builds for a staged re-ack, want 1", builds)
	}
	if _, err := s.Commit(1); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := s.Stage(1); err != nil {
		t.Fatalf("stage of live gen: %v", err)
	}
	if err := s.Stage(0); err != nil {
		t.Fatalf("stage of older gen: %v", err)
	}
	if builds != 1 {
		t.Fatalf("%d builds after live/older re-acks, want still 1", builds)
	}
	// Idempotent commit of a published generation: (nil, nil).
	if g, err := s.Commit(1); g != nil || err != nil {
		t.Fatalf("re-commit = (%v, %v), want (nil, nil)", g, err)
	}
}

// TestCommitRequiresStage proves phase order: committing a generation
// that was never staged is refused, naming what is actually held.
func TestCommitRequiresStage(t *testing.T) {
	s := twoPhaseStore(t)
	if _, err := s.Commit(1); err == nil {
		t.Fatal("commit without stage acked")
	} else if !strings.Contains(err.Error(), "not staged") {
		t.Fatalf("commit error: %v", err)
	}
	if err := s.Stage(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(2); err == nil {
		t.Fatal("commit of a different generation than staged acked")
	}
	if got := s.StagedGen(); got != 1 {
		t.Fatalf("failed commit disturbed the staged generation: %d", got)
	}
}

// TestAbortStageDiscards proves the quarantine path's cleanup verb:
// aborting drops the held build (exact generation or wildcard), and
// aborting nothing reports false.
func TestAbortStageDiscards(t *testing.T) {
	s := twoPhaseStore(t)
	if s.AbortStage(-1) {
		t.Fatal("abort with nothing staged reported a drop")
	}
	if err := s.Stage(1); err != nil {
		t.Fatal(err)
	}
	if s.AbortStage(2) {
		t.Fatal("abort of generation 2 dropped the staged generation 1")
	}
	if !s.AbortStage(1) {
		t.Fatal("abort of the staged generation reported nothing dropped")
	}
	if got := s.StagedGen(); got != -1 {
		t.Fatalf("StagedGen() = %d after abort", got)
	}
	// The aborted build is really gone: committing it is refused.
	if _, err := s.Commit(1); err == nil {
		t.Fatal("commit after abort acked")
	}
	// And the wildcard works too.
	if err := s.Stage(1); err != nil {
		t.Fatal(err)
	}
	if !s.AbortStage(-1) {
		t.Fatal("wildcard abort dropped nothing")
	}
}

// TestStageFailureQuarantines proves a crashing staged build is
// contained exactly like a crashing Advance: degraded state raised, no
// staged residue, the live generation untouched — and a later clean
// stage+commit clears the degradation.
func TestStageFailureQuarantines(t *testing.T) {
	s := twoPhaseStore(t)
	s.SetBuildHook(func(gen int) {
		if gen == 1 {
			panic("injected stage crash")
		}
	})
	err := s.Stage(1)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("stage of a crashing build: %v", err)
	}
	if got := s.StagedGen(); got != -1 {
		t.Fatalf("crashed stage left residue: staged gen %d", got)
	}
	if live := s.Current().Gen; live != 0 {
		t.Fatalf("crashed stage moved the live generation to %d", live)
	}
	deg := s.Degraded()
	if deg == nil || deg.FailedGen != 1 {
		t.Fatalf("degradation after quarantine: %+v", deg)
	}

	s.SetBuildHook(nil)
	if err := s.Stage(1); err != nil {
		t.Fatalf("recovery stage: %v", err)
	}
	if _, err := s.Commit(1); err != nil {
		t.Fatalf("recovery commit: %v", err)
	}
	if deg := s.Degraded(); deg != nil {
		t.Fatalf("commit did not clear the degradation: %+v", deg)
	}
}

// TestStageReplacesDifferentGeneration proves the replace rule: staging
// generation g+1 while g is held drops g and holds g+1 — the store
// never holds two unpublished builds.
func TestStageReplacesDifferentGeneration(t *testing.T) {
	s := twoPhaseStore(t)
	if err := s.Stage(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(2); err != nil {
		t.Fatal(err)
	}
	if got := s.StagedGen(); got != 2 {
		t.Fatalf("StagedGen() = %d after restage, want 2", got)
	}
	if _, err := s.Commit(1); err == nil {
		t.Fatal("commit of the replaced generation acked")
	}
	if _, err := s.Commit(2); err != nil {
		t.Fatalf("commit of the replacement: %v", err)
	}
	if live := s.Current().Gen; live != 2 {
		t.Fatalf("live gen %d, want 2", live)
	}
}
