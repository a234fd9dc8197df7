package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"stateowned/internal/runner"
)

// FlipStatus is the coordinator's public report: how far the fleet has
// flipped and how the last attempt went. It is what /readyz shows for
// the reload plane.
type FlipStatus struct {
	// Gen is the committed fleet generation after the last successful
	// flip.
	Gen int `json:"gen"`
	// Flips counts successful two-phase reloads; Aborts counts flips
	// quarantined at stage time (some shard failed validation, everyone
	// kept the previous generation).
	Flips  uint64 `json:"flips"`
	Aborts uint64 `json:"aborts"`
	// ConsecutiveFailures counts failed flips since the last success;
	// LastError describes the newest one. GaveUp means the reload loop
	// exhausted its failure budget and stopped — the fleet serves its
	// last committed generation indefinitely.
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	GaveUp              bool   `json:"gave_up,omitempty"`
}

// CoordinatorOptions configures the fleet reload coordinator.
type CoordinatorOptions struct {
	// ControlTimeout bounds each control-plane call (0 = 30s; stage
	// calls build a full generation, so this is a build budget, not a
	// ping budget).
	ControlTimeout time.Duration
	// Backoff spaces retries after failed flips (zero value =
	// runner.DefaultBackoff); MaxFailures stops the loop after that many
	// consecutive failed flips (0 = never give up).
	Backoff     runner.Backoff
	MaxFailures int
	// Sleep is the injectable wait (nil = time.Sleep-backed); tests run
	// the reload loop on virtual time through it.
	Sleep func(ctx context.Context, d time.Duration)
}

// Coordinator drives the fleet's generation-coherent two-phase reloads:
// phase one stages generation g on every shard (each builds it behind
// its own validation gate and holds it unpublished), phase two commits
// everywhere, and only after unanimous commit acks does the router's
// pin flip to g. Any stage failure aborts the whole flip — every shard
// keeps serving g-1, so a poisoned build can never split the fleet. A
// commit ack lost after phase two began leaves the router pinned to
// g-1, which every shard still retains: coherent, and converged by the
// next (idempotent) flip attempt.
type Coordinator struct {
	router *Router
	shards []ShardClient
	opts   CoordinatorOptions

	mu     sync.Mutex
	status FlipStatus
}

// NewCoordinator builds a coordinator over the router's fleet. The
// shard clients are the control-plane handles (usually the same
// base URLs the router fans out to).
func NewCoordinator(router *Router, shards []ShardClient, opts CoordinatorOptions) *Coordinator {
	if opts.ControlTimeout <= 0 {
		opts.ControlTimeout = 30 * time.Second
	}
	if opts.Backoff == (runner.Backoff{}) {
		opts.Backoff = runner.DefaultBackoff()
	}
	if opts.Sleep == nil {
		opts.Sleep = func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}
	c := &Coordinator{router: router, shards: shards, opts: opts}
	c.status.Gen = router.Gen()
	c.publish()
	return c
}

// Status snapshots the flip report.
func (c *Coordinator) Status() FlipStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// publish pushes the current status to the router's /readyz.
func (c *Coordinator) publish() {
	c.router.setFlipStatus(c.status)
}

// forEach runs one control call against every shard concurrently and
// returns the first error by shard order (so failure reports are
// deterministic).
func (c *Coordinator) forEach(ctx context.Context, call func(ctx context.Context, sc ShardClient) error) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc ShardClient) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, c.opts.ControlTimeout)
			defer cancel()
			errs[i] = call(cctx, sc)
		}(i, sc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FlipOnce attempts one two-phase reload to the next generation and
// returns the committed generation on success.
//
// Failure handling is asymmetric by design. A stage failure is a clean
// quarantine: abort everywhere, nobody moved, the fleet serves g-1
// exactly as before. A commit failure (crash or lost ack after phase
// two began) must NOT abort — some shards may already have published
// g — so the router simply keeps pinning g-1, which every shard still
// retains in its ring; the fleet stays coherent on g-1 and the next
// attempt re-stages (no-op for shards already at g, idempotent ack)
// and re-commits until unanimity is reached.
func (c *Coordinator) FlipOnce(ctx context.Context) (int, error) {
	target := c.router.Gen() + 1

	// Phase one: everyone builds and validates g, nobody serves it.
	if err := c.forEach(ctx, func(ctx context.Context, sc ShardClient) error {
		_, err := sc.Stage(ctx, target)
		return err
	}); err != nil {
		// Quarantine fleet-wide: drop every staged copy of g.
		abortErr := c.forEach(ctx, func(ctx context.Context, sc ShardClient) error {
			_, aerr := sc.Abort(ctx, target)
			return aerr
		})
		c.recordFailure(target, fmt.Errorf("stage: %w", err), true)
		if abortErr != nil {
			return 0, fmt.Errorf("staging generation %d: %w (abort also failed: %v)", target, err, abortErr)
		}
		return 0, fmt.Errorf("staging generation %d: %w", target, err)
	}

	// Phase two: unanimous publish, then — and only then — the flip.
	if err := c.forEach(ctx, func(ctx context.Context, sc ShardClient) error {
		_, err := sc.Commit(ctx, target)
		return err
	}); err != nil {
		c.recordFailure(target, fmt.Errorf("commit: %w", err), false)
		return 0, fmt.Errorf("committing generation %d: %w", target, err)
	}

	c.router.SetGen(target)
	c.mu.Lock()
	c.status.Gen = target
	c.status.Flips++
	c.status.ConsecutiveFailures = 0
	c.status.LastError = ""
	c.status.GaveUp = false
	c.mu.Unlock()
	c.publish()
	return target, nil
}

// recordFailure books one failed flip attempt.
func (c *Coordinator) recordFailure(gen int, err error, aborted bool) {
	c.mu.Lock()
	c.status.ConsecutiveFailures++
	c.status.LastError = fmt.Sprintf("generation %d: %v", gen, err)
	if aborted {
		c.status.Aborts++
	}
	c.mu.Unlock()
	c.publish()
}

// gaveUp marks the loop stopped after exhausting its failure budget.
func (c *Coordinator) gaveUp() {
	c.mu.Lock()
	c.status.GaveUp = true
	c.mu.Unlock()
	c.publish()
}

// Run is the fleet reload loop: a flip attempt every `every`, backoff
// after failures, give-up after MaxFailures consecutive failures —
// the fleet-scope mirror of snapshot.Store.Reload.
func (c *Coordinator) Run(ctx context.Context, every time.Duration, logf func(format string, args ...any)) {
	for {
		delay := every
		st := c.Status()
		if st.ConsecutiveFailures > 0 {
			if c.opts.MaxFailures > 0 && st.ConsecutiveFailures >= c.opts.MaxFailures {
				c.gaveUp()
				if logf != nil {
					logf("fleet reload: giving up after %d consecutive failed flips (%s)",
						st.ConsecutiveFailures, st.LastError)
				}
				return
			}
			delay = every * time.Duration(c.opts.Backoff.Delay(st.ConsecutiveFailures))
		}
		c.opts.Sleep(ctx, delay)
		if ctx.Err() != nil {
			return
		}
		gen, err := c.FlipOnce(ctx)
		if logf != nil {
			if err != nil {
				logf("fleet reload: %v", err)
			} else {
				logf("fleet reload: flipped to generation %d", gen)
			}
		}
	}
}

// Bootstrap adopts a safe fleet generation from a running fleet: it
// fetches every shard's status, cross-checks identity (each shard's
// position and partition must match the router's), and pins the router
// to the lowest live generation — the only one guaranteed committed
// everywhere. Shards ahead of the pin (commits from a flip whose ack
// was lost) retain the pinned generation in their rings, so the fleet
// is immediately coherent; the next flip converges the stragglers.
func (c *Coordinator) Bootstrap(ctx context.Context) (int, error) {
	statuses := make([]ShardStatus, len(c.shards))
	if err := c.forEach(ctx, func(ctx context.Context, sc ShardClient) error {
		st, err := sc.Status(ctx)
		if err != nil {
			return err
		}
		statuses[sc.Index] = st
		return nil
	}); err != nil {
		return 0, fmt.Errorf("fleet bootstrap: %w", err)
	}
	adopt := -1
	for i, st := range statuses {
		if st.Shard != i {
			return 0, fmt.Errorf("fleet bootstrap: shard at position %d reports index %d", i, st.Shard)
		}
		if !st.Partition.Equal(c.router.part) {
			return 0, fmt.Errorf("fleet bootstrap: shard %d partition differs from router's", i)
		}
		if adopt == -1 || st.LiveGen < adopt {
			adopt = st.LiveGen
		}
	}
	if adopt < 0 {
		return 0, fmt.Errorf("fleet bootstrap: no shards")
	}
	for i, st := range statuses {
		retained := false
		for _, g := range st.Retained {
			if g == adopt {
				retained = true
				break
			}
		}
		if !retained {
			return 0, fmt.Errorf("fleet bootstrap: shard %d does not retain generation %d", i, adopt)
		}
	}
	// Shards with durable archives recovered independently; agreeing on
	// a generation *number* is not yet agreeing on its *bytes*. Every
	// archived dataset fingerprint for the adopted generation must
	// match across the fleet — a shard whose recovery landed on
	// different bytes (corrupted archive healed from a divergent build,
	// mismatched seeds) must be caught before the router pins to it.
	sum, sumShard := "", -1
	for i, st := range statuses {
		s, ok := st.DatasetSums[adopt]
		if !ok || s == "" {
			continue
		}
		if sum == "" {
			sum, sumShard = s, i
			continue
		}
		if s != sum {
			return 0, fmt.Errorf(
				"fleet bootstrap: recovered generation %d disagrees across shards: shard %d has dataset %s, shard %d has %s",
				adopt, sumShard, fingerprintPrefix(sum), i, fingerprintPrefix(s))
		}
	}
	c.router.SetGen(adopt)
	c.mu.Lock()
	c.status.Gen = adopt
	c.mu.Unlock()
	c.publish()
	return adopt, nil
}

// fingerprintPrefix shortens a dataset fingerprint for an error
// message. Fingerprints arrive in replicas' /fleet/status JSON, so
// their length is not trusted.
func fingerprintPrefix(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}
