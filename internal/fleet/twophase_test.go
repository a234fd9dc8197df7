package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stateowned/internal/world"
)

// TestTwoPhaseHappyFlip proves the basic coherent reload: stage
// everywhere, commit everywhere, flip — every shard live on the new
// generation and the router pinning it.
func TestTwoPhaseHappyFlip(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	gen, err := tf.coord.FlipOnce(context.Background())
	if err != nil || gen != 1 {
		t.Fatalf("FlipOnce = %d, %v", gen, err)
	}
	if g := tf.router.Gen(); g != 1 {
		t.Fatalf("router gen %d after flip", g)
	}
	for i, sh := range tf.shards {
		if live := sh.Store().Current().Gen; live != 1 {
			t.Fatalf("shard %d live gen %d after flip", i, live)
		}
		if staged := sh.Store().StagedGen(); staged != -1 {
			t.Fatalf("shard %d still holds staged gen %d after commit", i, staged)
		}
	}
	st := tf.coord.Status()
	if st.Flips != 1 || st.Gen != 1 || st.ConsecutiveFailures != 0 {
		t.Fatalf("flip status %+v", st)
	}
}

// TestTwoPhaseStageFailureQuarantinesFlip proves pillar one: one
// shard's build failing at stage time aborts the whole flip — no shard
// publishes, every shard (and the router) stays on the previous
// generation, and the staged build is discarded everywhere. A later
// clean flip succeeds.
func TestTwoPhaseStageFailureQuarantinesFlip(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 3})
	// Shard 2's build of generation 1 crashes — the snapshot gate turns
	// the panic into a quarantine, the stage call into a 409.
	tf.shards[2].Store().SetBuildHook(func(gen int) {
		if gen == 1 {
			panic("injected build crash")
		}
	})
	if _, err := tf.coord.FlipOnce(context.Background()); err == nil {
		t.Fatal("FlipOnce succeeded with a crashing shard build")
	} else if !strings.Contains(err.Error(), "staging generation 1") {
		t.Fatalf("unexpected flip error: %v", err)
	}
	if g := tf.router.Gen(); g != 0 {
		t.Fatalf("router flipped to %d after an aborted stage", g)
	}
	for i, sh := range tf.shards {
		if live := sh.Store().Current().Gen; live != 0 {
			t.Fatalf("shard %d advanced to %d despite the quarantined flip", i, live)
		}
		if staged := sh.Store().StagedGen(); staged != -1 {
			t.Fatalf("shard %d still holds staged gen %d after the abort", i, staged)
		}
	}
	st := tf.coord.Status()
	if st.Aborts != 1 || st.ConsecutiveFailures != 1 || st.LastError == "" {
		t.Fatalf("flip status after quarantine %+v", st)
	}
	// Requests keep answering coherently from generation 0 the whole time.
	rec := tf.get("/v1/dataset")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Generation") != "0" {
		t.Fatalf("dataset during quarantine: %d gen %q", rec.Code, rec.Header().Get("X-Generation"))
	}

	// Clear the crash; the next flip converges the fleet to generation 1.
	tf.shards[2].Store().SetBuildHook(nil)
	if gen, err := tf.coord.FlipOnce(context.Background()); err != nil || gen != 1 {
		t.Fatalf("recovery FlipOnce = %d, %v", gen, err)
	}
	if st := tf.coord.Status(); st.ConsecutiveFailures != 0 || st.Gen != 1 {
		t.Fatalf("flip status after recovery %+v", st)
	}
}

// TestTwoPhaseCommitAckLostConverges proves the commit-phase failure
// contract: when a shard's commit ack is lost after phase two began,
// the router does NOT flip (it keeps pinning g-1, which every shard
// still retains — coherent), and the next flip attempt converges the
// fleet through the idempotent stage/commit path.
func TestTwoPhaseCommitAckLostConverges(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	// Lose shard 1's commit ack exactly once. The intercept runs on the
	// coordinator's parallel per-shard goroutines, so the one-shot flag
	// must be atomic.
	var failed atomic.Bool
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.Method == http.MethodPost &&
			req.URL.Host == "shard1" && req.URL.Path == CommitPath &&
			failed.CompareAndSwap(false, true) {
			return nil, true // transport error: the ack is lost
		}
		return nil, false
	})
	if _, err := tf.coord.FlipOnce(context.Background()); err == nil {
		t.Fatal("FlipOnce succeeded with a lost commit ack")
	}
	tf.transport.setIntercept(nil)

	// The fleet is now split (shard 0 live on 1, shard 1 on 0) but the
	// router still pins 0, which both shards retain — every answer stays
	// on one consistent generation.
	if g := tf.router.Gen(); g != 0 {
		t.Fatalf("router flipped to %d without unanimous commit acks", g)
	}
	if live0 := tf.shards[0].Store().Current().Gen; live0 != 1 {
		t.Fatalf("shard 0 live gen %d, want 1 (its commit succeeded)", live0)
	}
	if live1 := tf.shards[1].Store().Current().Gen; live1 != 0 {
		t.Fatalf("shard 1 live gen %d, want 0 (its commit ack was lost)", live1)
	}
	rec := tf.get("/v1/dataset")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Generation") != "0" {
		t.Fatalf("dataset during split: %d gen %q", rec.Code, rec.Header().Get("X-Generation"))
	}

	// Next attempt: stage is a no-op ack on the advanced shard and an
	// already-staged re-ack on the lagging one (its commit never ran, so
	// the staged build is still held); commit publishes it everywhere and
	// the flip lands.
	if gen, err := tf.coord.FlipOnce(context.Background()); err != nil || gen != 1 {
		t.Fatalf("convergence FlipOnce = %d, %v", gen, err)
	}
	for i, sh := range tf.shards {
		if live := sh.Store().Current().Gen; live != 1 {
			t.Fatalf("shard %d live gen %d after convergence", i, live)
		}
	}
	if g := tf.router.Gen(); g != 1 {
		t.Fatalf("router gen %d after convergence", g)
	}
}

// TestTwoPhaseControlPlaneIdempotent proves the control verbs are safe
// to repeat: double stage, commit of an already-live generation, and
// abort of nothing all ack without changing state.
func TestTwoPhaseControlPlaneIdempotent(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	ctx := context.Background()
	sc := tf.clients[0]
	if _, err := sc.Stage(ctx, 1); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if _, err := sc.Stage(ctx, 1); err != nil {
		t.Fatalf("re-stage: %v", err)
	}
	if _, err := sc.Commit(ctx, 1); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, err := sc.Commit(ctx, 1); err != nil {
		t.Fatalf("re-commit: %v", err)
	}
	if _, err := sc.Stage(ctx, 1); err != nil {
		t.Fatalf("stage of already-live gen: %v", err)
	}
	if ack, err := sc.Abort(ctx, 5); err != nil || ack.Done {
		t.Fatalf("abort of nothing: done=%v err=%v", ack.Done, err)
	}
	if live := tf.shards[0].Store().Current().Gen; live != 1 {
		t.Fatalf("live gen %d after idempotence dance", live)
	}
	// Commit without a stage is refused — phase order is enforced.
	if _, err := sc.Commit(ctx, 3); err == nil {
		t.Fatal("commit of an unstaged generation acked")
	}
}

// TestBootstrapAdoptsCommonGeneration proves router bootstrap: with
// shards at divergent live generations (a lost-ack aftermath), the
// adopted fleet generation is the lowest live one, which everyone
// retains.
func TestBootstrapAdoptsCommonGeneration(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	// Advance shard 0 ahead: stage+commit gen 1 directly on its store.
	if err := tf.shards[0].Store().Stage(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.shards[0].Store().Commit(1); err != nil {
		t.Fatal(err)
	}
	tf.router.SetGen(99) // nonsense pin to prove Bootstrap overwrites it
	gen, err := tf.coord.Bootstrap(context.Background())
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if gen != 0 || tf.router.Gen() != 0 {
		t.Fatalf("bootstrap adopted %d (router %d), want 0", gen, tf.router.Gen())
	}
}

// TestCoordinatorRunBacksOffEveryFailure proves the reload loop never
// stops waiting between failed flips: against a replica that cannot be
// reached, 70 consecutive flips fail, and every sleep of the loop — past
// the point where an unsaturated exponential backoff overflows — is at
// least the flip cadence.
func TestCoordinatorRunBacksOffEveryFailure(t *testing.T) {
	const every = time.Second
	clients := []ShardClient{{Base: "http://unreachable", HTTP: &http.Client{Transport: newHandlerTransport()}}}
	rt, err := NewRouter(RouterOptions{Partition: Partition{Shards: 1}, Shards: clients, After: neverAfter})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sleeps []time.Duration
	coord := NewCoordinator(rt, clients, CoordinatorOptions{
		Sleep: func(_ context.Context, d time.Duration) {
			sleeps = append(sleeps, d)
			if len(sleeps) > 70 {
				cancel()
			}
		},
	})
	coord.Run(ctx, every, nil)
	if st := coord.Status(); st.ConsecutiveFailures != 70 || st.GaveUp {
		t.Fatalf("flip status after the loop %+v, want 70 consecutive failures", st)
	}
	for i, d := range sleeps {
		if d < every {
			t.Fatalf("sleep %d after %d failed flips lasted %v, want at least %v", i, i, d, every)
		}
	}
}

// TestBootstrapToleratesShortFingerprints proves Bootstrap treats the
// replicas' status JSON as outside input: fingerprints shorter than the
// error message's 12-character prefix are refused with the
// disagreement error instead of panicking the router at startup.
func TestBootstrapToleratesShortFingerprints(t *testing.T) {
	part := Partition{Shards: 2, Bounds: []world.ASN{1000}}
	tr := newHandlerTransport()
	tr.setIntercept(func(req *http.Request) (*http.Response, bool) {
		i, sum := 0, "abc"
		if req.URL.Host == "shard1" {
			i, sum = 1, "abd"
		}
		body, err := json.Marshal(ShardStatus{
			Shard: i, Shards: 2, Partition: part, StagedGen: -1,
			Retained: []int{0}, DatasetSums: map[int]string{0: sum},
		})
		if err != nil {
			return nil, true
		}
		return craftedResponse(http.StatusOK, nil, string(body)), true
	})
	hc := &http.Client{Transport: tr}
	clients := []ShardClient{{Index: 0, Base: "http://shard0", HTTP: hc}, {Index: 1, Base: "http://shard1", HTTP: hc}}
	rt, err := NewRouter(RouterOptions{Partition: part, Shards: clients, After: neverAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Bootstrap panicked on short fingerprints: %v", p)
		}
	}()
	_, err = NewCoordinator(rt, clients, CoordinatorOptions{}).Bootstrap(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disagrees across shards") {
		t.Fatalf("Bootstrap over fingerprints \"abc\" and \"abd\": %v", err)
	}
}
