package snapshot

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stateowned"
	"stateowned/internal/expand"
	"stateowned/internal/runner"
	"stateowned/internal/serve"
)

// gateStore builds a small store with the given validation policy.
func gateStore(t *testing.T, val *Validation) *Store {
	t.Helper()
	return New(Options{
		Base:       stateowned.Config{Seed: 7, Scale: testScale},
		Validation: val,
	})
}

// TestValidateInvariants drives the gate's two unconditional
// invariants directly: an empty dataset and an unready pipeline Health
// are rejected no matter how permissive the churn bound is.
func TestValidateInvariants(t *testing.T) {
	s := gateStore(t, &Validation{MaxChurnFraction: 1e9})
	prev := s.Current()

	empty := &Generation{
		Index:  serve.BuildIndex(&expand.Dataset{}),
		Result: &stateowned.Result{Dataset: &expand.Dataset{}},
	}
	if err := s.validate(prev, empty); err == nil || !strings.Contains(err.Error(), "empty dataset") {
		t.Fatalf("validate(empty) = %v, want the empty-dataset invariant", err)
	}

	h := runner.NewHealth(0)
	h.MarkUnavailable("eyeballs", "injected outage")
	unready := &Generation{
		Index:  prev.Index,
		Result: &stateowned.Result{Dataset: prev.Result.Dataset, Health: h},
	}
	if err := s.validate(prev, unready); err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("validate(unready) = %v, want the readiness invariant", err)
	}

	// The live generation trivially passes against itself (no churn).
	if err := s.validate(prev, prev); err != nil {
		t.Fatalf("validate(self) = %v", err)
	}
}

// TestChurnBoundQuarantines proves the operational lever the verify
// smoke rides: with MaxChurnFraction 0 any real churn (seed 7 moves
// ~1.7% of the ASN set per generation) is rejected, the store keeps
// serving generation 0, and the degraded state carries the reason.
func TestChurnBoundQuarantines(t *testing.T) {
	s := gateStore(t, &Validation{MaxChurnFraction: 0})

	g, err := s.TryAdvance()
	if g != nil || err == nil {
		t.Fatalf("TryAdvance = (%v, %v), want quarantine", g, err)
	}
	if !strings.Contains(err.Error(), "churn") {
		t.Fatalf("quarantine reason = %q, want a churn violation", err)
	}
	if cur := s.Current(); cur.Gen != 0 {
		t.Fatalf("live generation advanced to %d past a quarantine", cur.Gen)
	}
	d := s.Degraded()
	if d == nil || d.FailedGen != 1 || d.Failures != 1 || d.GaveUp {
		t.Fatalf("degraded state = %+v", d)
	}
	if s.Quarantines() != 1 {
		t.Fatalf("quarantines = %d", s.Quarantines())
	}
	// Advance (the error-swallowing wrapper) reports the quarantine as
	// a nil generation.
	if g := s.Advance(); g != nil {
		t.Fatalf("Advance published %v under a zero churn bound", g)
	}
	if d := s.Degraded(); d.Failures != 2 {
		t.Fatalf("consecutive failures = %d, want 2", d.Failures)
	}
}

// TestQuarantineVerdictRemembered proves a retried rejection costs no
// rebuild: the churn-bound verdict is a pure function of (generation,
// live parent), so three quarantines of generation 1 build it once,
// while still counting every failure and raising the degraded state.
// A different generation over the same parent is a different question
// and builds.
func TestQuarantineVerdictRemembered(t *testing.T) {
	s := gateStore(t, &Validation{MaxChurnFraction: 0})
	builds := 0
	s.SetBuildHook(func(int) { builds++ })
	for i := 1; i <= 3; i++ {
		if _, err := s.TryAdvance(); err == nil || !strings.Contains(err.Error(), "churn") {
			t.Fatalf("attempt %d: %v, want the churn-bound quarantine", i, err)
		}
		if d := s.Degraded(); d == nil || d.Failures != i || d.FailedGen != 1 {
			t.Fatalf("attempt %d: degraded state %+v", i, d)
		}
	}
	if builds != 1 {
		t.Errorf("%d builds across 3 quarantines of one generation, want 1", builds)
	}
	if q := s.Quarantines(); q != 3 {
		t.Errorf("quarantines = %d, want 3", q)
	}
	if err := s.Stage(2); err == nil {
		t.Fatal("generation 2 staged under a zero churn bound")
	}
	if builds != 2 {
		t.Errorf("%d builds after staging generation 2, want 2", builds)
	}
}

// TestPanickingRebuildQuarantined wedges the store's build hook into a
// panic: the rebuild must be contained (no process crash), counted as
// a quarantine, and the store must recover — hook removed, the next
// advance publishes and clears the degraded state.
func TestPanickingRebuildQuarantined(t *testing.T) {
	s := gateStore(t, nil)
	s.SetBuildHook(func(gen int) { panic(fmt.Sprintf("injected rebuild crash at generation %d", gen)) })

	g, err := s.TryAdvance()
	if g != nil || err == nil {
		t.Fatalf("TryAdvance = (%v, %v), want quarantine", g, err)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("quarantine reason = %q, want a contained panic", err)
	}
	if s.Current().Gen != 0 {
		t.Fatal("a panicking rebuild replaced the live generation")
	}

	s.SetBuildHook(nil)
	g, err = s.TryAdvance()
	if err != nil || g == nil || g.Gen != 1 {
		t.Fatalf("recovery advance = (%v, %v)", g, err)
	}
	if d := s.Degraded(); d != nil {
		t.Fatalf("degraded state survived a successful swap: %+v", d)
	}
	if s.Current().Gen != 1 {
		t.Fatalf("live generation = %d after recovery", s.Current().Gen)
	}
}

// TestPipelineFailureQuarantined forces a pipeline node to crash via
// the package-level build hook (the same seam the scheduler's own
// containment tests use): the pipeline completes degraded with the
// source unavailable, and the gate's Health.Ready invariant refuses to
// publish the build. The crashing source is Orbis, which reads the
// equity graph: churn dirties it, so it rebuilds (and fires the hook)
// instead of restoring from the parent's memo.
func TestPipelineFailureQuarantined(t *testing.T) {
	s := gateStore(t, nil)
	restore := stateowned.SetBuildHook(func(node string) {
		if node == "orbis" {
			panic("injected orbis outage")
		}
	})
	defer restore()

	g, err := s.TryAdvance()
	if g != nil || err == nil {
		t.Fatalf("TryAdvance = (%v, %v), want quarantine", g, err)
	}
	if !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("quarantine reason = %q, want the readiness invariant", err)
	}
	if s.Current().Gen != 0 {
		t.Fatal("an unready build replaced the live generation")
	}

	restore()
	if g, err := s.TryAdvance(); err != nil || g.Gen != 1 {
		t.Fatalf("recovery advance = (%v, %v)", g, err)
	}
}

// timerCtl is a hand-fired After: Reload's waits park on ch, the test
// observes the requested delays and releases each wait explicitly, so
// retry schedules are asserted without any real sleeping.
type timerCtl struct {
	mu    sync.Mutex
	calls []time.Duration
	ch    chan time.Time
}

func newTimerCtl() *timerCtl { return &timerCtl{ch: make(chan time.Time)} }

func (tc *timerCtl) after(d time.Duration) <-chan time.Time {
	tc.mu.Lock()
	tc.calls = append(tc.calls, d)
	tc.mu.Unlock()
	return tc.ch
}

// waitCalls parks until Reload has asked for n timers.
func (tc *timerCtl) waitCalls(t *testing.T, n int) []time.Duration {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tc.mu.Lock()
		calls := append([]time.Duration(nil), tc.calls...)
		tc.mu.Unlock()
		if len(calls) >= n {
			return calls
		}
		if time.Now().After(deadline) {
			t.Fatalf("reload requested %d timers, want %d", len(calls), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// fire releases one parked wait.
func (tc *timerCtl) fire() { tc.ch <- time.Time{} }

// TestReloadBackoffAndGiveUp runs the reload loop against a rebuild
// that always fails and proves the pacing contract on the injected
// timer: cadence wait first, then capped-exponential backoff delays,
// then — at MaxFailures — a terminal GaveUp state with no further
// rebuild attempts.
func TestReloadBackoffAndGiveUp(t *testing.T) {
	tc := newTimerCtl()
	s := New(Options{
		Base: stateowned.Config{Seed: 7, Scale: testScale},
		Validation: &Validation{
			MaxChurnFraction: 0, // every advance quarantines
			MaxFailures:      3,
		},
		After: tc.after,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Reload(ctx, time.Hour, nil)
	}()

	// Failure n waits Delay(n) seconds before attempt n+1: 1s, 2s after
	// the initial 1h cadence wait.
	wantDelays := []time.Duration{time.Hour, 1 * time.Second, 2 * time.Second}
	for i := range wantDelays {
		calls := tc.waitCalls(t, i+1)
		if calls[i] != wantDelays[i] {
			t.Fatalf("wait %d = %v, want %v (all: %v)", i, calls[i], wantDelays[i], calls)
		}
		tc.fire() // run the (failing) advance
	}

	// Third consecutive failure reaches MaxFailures: the loop parks in
	// the terminal state without asking for another timer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if d := s.Degraded(); d != nil && d.GaveUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reload never gave up: %+v", s.Degraded())
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(tc.waitCalls(t, 3)); got != 3 {
		t.Fatalf("reload kept scheduling after giving up: %d timers", got)
	}
	if q := s.Quarantines(); q != 3 {
		t.Fatalf("quarantines = %d, want 3", q)
	}
	if s.Current().Gen != 0 {
		t.Fatal("gave-up store is not serving last-known-good")
	}
	cancel()
	<-done
}

// TestReloadRecovers proves the loop heals: a failing rebuild
// backs off, then the fault clears and the next paced attempt
// publishes, resetting the failure counter and degraded state.
func TestReloadRecovers(t *testing.T) {
	tc := newTimerCtl()
	s := New(Options{
		Base:       stateowned.Config{Seed: 7, Scale: testScale},
		Validation: &Validation{MaxChurnFraction: 1},
		After:      tc.after,
	})
	s.SetBuildHook(func(gen int) { panic("transient rebuild fault") })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Reload(ctx, time.Minute, nil)
	}()

	tc.waitCalls(t, 1)
	tc.fire() // attempt 1: panics, quarantined
	tc.waitCalls(t, 2)
	if s.Degraded() == nil {
		t.Fatal("no degraded state after a failed reload")
	}
	s.SetBuildHook(nil)
	tc.fire() // attempt 2: heals

	deadline := time.Now().Add(10 * time.Second)
	for s.Current().Gen != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("reload never recovered; generation %d", s.Current().Gen)
		}
		time.Sleep(time.Millisecond)
	}
	if d := s.Degraded(); d != nil {
		t.Fatalf("degraded state survived recovery: %+v", d)
	}
	cancel()
	<-done
}

// TestServeLastKnownGoodUnderFailingRebuild is the end-to-end chaos
// acceptance: a generational server whose rebuilds are forced to fail
// keeps answering every /v1 request from the last good generation
// while /readyz (still 200 — the server IS serving) and /metrics
// surface the degraded reload state; when the fault clears, the
// dataset advances and the degraded flag drops. Concurrent queries
// run through the quarantine window, so -race also proves the
// degraded-state plumbing is clean under load.
func TestServeLastKnownGoodUnderFailingRebuild(t *testing.T) {
	s := gateStore(t, nil)
	srv := serve.NewDynamic(s.Source(), serve.Options{CacheSize: 64})
	s.OnEvict(srv.InvalidateGeneration)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// get is called from worker goroutines too, so it must not Fatal —
	// it reports transport errors and returns a zero code the callers
	// treat as a failure.
	get := func(path string) (int, http.Header, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, nil, nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("GET %s: reading body: %v", path, err)
			return 0, nil, nil
		}
		return resp.StatusCode, resp.Header, body
	}

	// Healthy baseline: one real advance.
	if g, err := s.TryAdvance(); err != nil || g.Gen != 1 {
		t.Fatalf("baseline advance = (%v, %v)", g, err)
	}

	// Force every further rebuild to crash; hammer the API while a
	// quarantined advance runs.
	s.SetBuildHook(func(gen int) { panic("forced rebuild failure") })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, hdr, _ := get("/v1/dataset")
				if code != http.StatusOK {
					t.Errorf("/v1/dataset = %d during quarantine", code)
					return
				}
				if gen := hdr.Get(serve.GenerationHeader); gen != "1" {
					t.Errorf("served generation %q, want last-known-good 1", gen)
					return
				}
			}
		}()
	}
	if g, err := s.TryAdvance(); g != nil || err == nil {
		t.Fatalf("forced rebuild = (%v, %v), want quarantine", g, err)
	}
	close(stop)
	wg.Wait()

	code, _, body := get("/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz during degradation = %d (the server IS serving)", code)
	}
	var ready serve.ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if !ready.Degraded || ready.DegradedReason == "" || ready.Generation != 1 || ready.ConsecutiveFailures != 1 {
		t.Fatalf("readyz = %+v, want degraded on generation 1", ready)
	}

	code, _, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	if !snap.Degraded || snap.DegradedReason == "" {
		t.Fatalf("metrics degraded = (%v, %q)", snap.Degraded, snap.DegradedReason)
	}

	// Fault clears: the dataset advances again and the flag drops.
	s.SetBuildHook(nil)
	if g, err := s.TryAdvance(); err != nil || g.Gen != 2 {
		t.Fatalf("post-fault advance = (%v, %v)", g, err)
	}
	code, _, body = get("/readyz")
	if err := json.Unmarshal(body, &ready); err != nil || code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d %v", code, err)
	}
	if ready.Degraded || ready.Generation != 2 {
		t.Fatalf("readyz after recovery = %+v", ready)
	}
}
