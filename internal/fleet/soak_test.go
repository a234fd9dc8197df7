package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stateowned/internal/serve"
)

// sample is one 200 answer captured during the soak storm: the path, the
// generation it was pinned to, and the exact bytes served.
type sample struct {
	path string
	gen  string
	body []byte
}

// TestSoakRollingReloadsUnderFire is the fleet's centerpiece robustness
// proof: concurrent clients hammer every endpoint class while the
// coordinator drives the fleet through three committed generations with
// every failure mode injected along the way — a poisoned build at stage
// time, a shard crash mid-flip, and a lost commit ack that splits the
// shards' live generations. The invariants:
//
//   - No request ever sees a 500 or a torn read: every status is 200
//     or 503, and every 200 names exactly one generation.
//   - Zero torn reads, proved by replay: every 200 body captured during
//     the storm, re-requested afterwards pinned to its generation, is
//     byte-identical — so each answer was a pure function of (path,
//     generation) even while flips, crashes and recoveries raced it.
//   - The fleet converges: after the storm every path answers 200 and
//     the flip ledger shows exactly the injected history.
func TestSoakRollingReloadsUnderFire(t *testing.T) {
	// The storyline is identical in -short mode; only the world is
	// smaller, so the per-flip generation builds (the dominant cost,
	// especially under -race) stay cheap.
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	tf := buildFleet(t, fleetConfig{shards: 3, scale: scale})
	ctx := context.Background()

	// The request mix: every endpoint class, all valid inputs (the soak
	// is about infrastructure failures, not client errors).
	ds := tf.shards[0].Store().Current().Result.Dataset
	mix := []string{"/v1/dataset", "/v1/search?name=telecom"}
	for shard := 0; shard < 3; shard++ {
		mix = append(mix, asnPath(tf.asnOnShard(t, shard)))
	}
	for _, cc := range tf.shards[0].Store().Current().World.Countries[:3] {
		mix = append(mix, "/v1/country/"+cc)
	}
	mix = append(mix, "/v1/org/"+ds.Organizations[0].OrgID)
	mix = append(mix, "/v1/search?name="+strings.ReplaceAll(ds.Organizations[0].OrgName, " ", "+"))

	// Unthrottled workers saturate the CPU and starve the flip builds of
	// cores, which under -race stretches the storyline several-fold; the
	// -short storm trades raw request volume for wall time.
	workers, throttle := 4, time.Duration(0)
	if testing.Short() {
		workers, throttle = 2, time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	samples := make([][]sample, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if throttle > 0 {
					time.Sleep(throttle)
				}
				path := mix[(w+i)%len(mix)]
				rec := tf.get(path)
				switch rec.Code {
				case http.StatusOK:
					if gens := rec.Header().Values(serve.GenerationHeader); len(gens) != 1 || gens[0] == "" {
						t.Errorf("worker %d: %s answered %d with generations %v", w, path, rec.Code, gens)
						return
					}
					if !json.Valid(rec.Body.Bytes()) {
						t.Errorf("worker %d: %s answered %d with invalid JSON", w, path, rec.Code)
						return
					}
					if i%5 == 0 && len(samples[w]) < 48 {
						samples[w] = append(samples[w], sample{
							path: path,
							gen:  rec.Header().Get(serve.GenerationHeader),
							body: append([]byte(nil), rec.Body.Bytes()...),
						})
					}
				case http.StatusServiceUnavailable:
					// No replica could answer coherently: declared, allowed.
				default:
					t.Errorf("worker %d: %s answered %d: %s", w, path, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}

	// waitMore blocks until the workers have pushed n more requests
	// through the router, so every storyline phase is actually exercised
	// under load.
	waitMore := func(n uint64) {
		t.Helper()
		target := tf.router.Metrics().Snapshot().Requests + n
		deadline := time.Now().Add(30 * time.Second)
		for tf.router.Metrics().Snapshot().Requests < target {
			if time.Now().After(deadline) {
				t.Fatal("workers stalled")
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitMore(50) // a healthy baseline at generation 0

	// Act 1: a clean flip under load.
	if gen, err := tf.coord.FlipOnce(ctx); err != nil || gen != 1 {
		t.Fatalf("clean flip: %d, %v", gen, err)
	}
	waitMore(50)

	// Act 2: a poisoned build — shard 1's generation 2 crashes at stage
	// time; the whole flip quarantines and the fleet keeps serving 1.
	tf.shards[1].Store().SetBuildHook(func(gen int) {
		if gen == 2 {
			panic("soak: injected build crash")
		}
	})
	if _, err := tf.coord.FlipOnce(ctx); err == nil {
		t.Fatal("poisoned flip succeeded")
	}
	tf.shards[1].Store().SetBuildHook(nil)
	if g := tf.router.Gen(); g != 1 {
		t.Fatalf("router left generation 1 (now %d) after a quarantined flip", g)
	}
	waitMore(50)

	// Act 3: shard 2 crashes outright; a flip attempted against the dead
	// shard fails, and traffic fails over to the survivors, which keep
	// serving generation 1.
	tf.transport.setDown("shard2", true)
	if _, err := tf.coord.FlipOnce(ctx); err == nil {
		t.Fatal("flip succeeded with a crashed shard")
	}
	if g := tf.router.Gen(); g != 1 {
		t.Fatalf("router flipped to %d with a crashed shard", g)
	}
	waitMore(100)

	// Act 4: the shard comes back and the delayed flip lands.
	tf.transport.setDown("shard2", false)
	if gen, err := tf.coord.FlipOnce(ctx); err != nil || gen != 2 {
		t.Fatalf("post-crash flip: %d, %v", gen, err)
	}
	waitMore(50)

	// Act 5: shard 0's commit ack for generation 3 is lost after phase
	// two began — the fleet's live generations split, the router stays
	// pinned to 2 (which everyone retains), and the next attempt
	// converges.
	var lost atomic.Bool
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.Method == http.MethodPost &&
			req.URL.Host == "shard0" && req.URL.Path == CommitPath &&
			lost.CompareAndSwap(false, true) {
			return nil, true
		}
		return nil, false
	})
	if _, err := tf.coord.FlipOnce(ctx); err == nil {
		t.Fatal("flip succeeded with a lost commit ack")
	}
	tf.transport.setIntercept(nil)
	if g := tf.router.Gen(); g != 2 {
		t.Fatalf("router flipped to %d without unanimous commit acks", g)
	}
	waitMore(50)
	if gen, err := tf.coord.FlipOnce(ctx); err != nil || gen != 3 {
		t.Fatalf("convergence flip: %d, %v", gen, err)
	}
	waitMore(50)

	close(stop)
	wg.Wait()

	// The flip ledger shows exactly the injected history: three
	// committed generations, one stage abort per stage-phase failure
	// (the poisoned build and the crashed shard), and a clean slate
	// after the final success.
	st := tf.coord.Status()
	if st.Gen != 3 || st.Flips != 3 || st.Aborts != 2 ||
		st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("flip ledger %+v", st)
	}

	// Drain: shard 2's breaker may still be open from the crash window;
	// keep probing until the fleet answers 20 consecutive clean 200s.
	healthy := 0
	for i := 0; healthy < 20; i++ {
		if i > 5000 {
			t.Fatal("fleet never re-converged to fully healthy answers")
		}
		if rec := tf.get(mix[i%len(mix)]); rec.Code == http.StatusOK {
			healthy++
		} else {
			healthy = 0
		}
	}

	// Replay: every 200 captured during the storm, pinned to the
	// generation it was served from, must reproduce byte for byte. This
	// is the zero-torn-reads proof — if any answer had mixed
	// generations, or depended on which shards happened to be alive or
	// mid-flip, its replay would differ.
	replayed := 0
	for w := range samples {
		for _, s := range samples[w] {
			sep := "?"
			if strings.Contains(s.path, "?") {
				sep = "&"
			}
			rec := tf.get(s.path + sep + "gen=" + s.gen)
			if rec.Code != http.StatusOK {
				t.Fatalf("replay %s at gen %s: %d %s", s.path, s.gen, rec.Code, rec.Body.String())
			}
			if !bytes.Equal(rec.Body.Bytes(), s.body) {
				t.Fatalf("torn read: %s at gen %s replayed differently\nstorm: %s\nreplay: %s",
					s.path, s.gen, s.body, rec.Body.Bytes())
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("the storm captured no samples — the soak proved nothing")
	}
	t.Logf("soak: %d requests, %d samples replayed coherently across generations 0-3, metrics %+v",
		tf.router.Metrics().Snapshot().Requests, replayed, tf.router.Metrics().Snapshot())
}
