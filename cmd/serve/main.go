// Command serve runs the pipeline and serves the resulting dataset over
// an HTTP JSON API: per-ASN, per-country and per-organization lookups,
// fuzzy name search, the full Listing-1 export, and the operational
// endpoints /healthz, /readyz (the pipeline's degradation report) and
// /metrics (request counts, latency histograms, cache hit ratio).
//
// The dataset is generational: the server holds a snapshot store whose
// ground-truth world ages under the seeded ownership-churn model. With
// -reload-every > 0 the store rebuilds the next generation on a
// background cadence and publishes it with an atomic swap — traffic is
// never paused; in-flight requests finish on the generation they
// started on. ?gen=N pins a query to any generation still in the
// retention ring (-generations), and /v1/diff?from=&to= audits the
// ownership churn between two retained generations. Each rebuild reuses
// the previous generation's artifacts for pipeline nodes whose inputs
// did not churn — byte-identical output, reported on /metrics as
// nodes_reused/nodes_rebuilt.
//
// The same binary also runs as a replicated fleet. -mode shard serves
// one full replica of the dataset plus the /fleet two-phase control
// plane; -mode router is the fleet's front door, sending each read to
// one of the replicas in -shard-addrs (moving to the next when one is
// lost) and (with -flip-every) driving their generation-coherent
// reloads: stage everywhere behind each replica's validation gate,
// commit only on unanimous acks, then flip the router's generation pin.
// Replicas rebuild every generation deterministically from (seed, churn
// seed, generation), so a fleet needs agreement on numbers, never state
// transfer.
//
// Usage:
//
//	serve [-addr :8080] [-seed N] [-scale F] [-workers N] [-chaos F] [-chaos-seed N] [-cache N]
//	      [-reload-every D] [-generations N] [-churn-seed N]
//	      [-max-inflight N] [-queue-wait D] [-request-timeout D] [-drain-timeout D]
//	      [-reload-max-churn F] [-reload-max-failures N]
//	serve -mode shard -shards N -shard-index I [world and serving flags]
//	serve -mode router -shard-addrs host:port,host:port,... [-flip-every D] [serving flags]
//
// Flags that contradict the chosen mode (a -reload-every timer on a
// shard, world-build flags on the data-less router, fleet flags on a
// single) are rejected at startup with exit status 2.
//
// With -chaos > 0 the pipeline builds under a seeded fault plan and
// /readyz reflects the degraded sources (503 when a source went
// unavailable). -workers bounds the build scheduler's pool for every
// generation's pipeline run (0 = GOMAXPROCS; the served dataset is
// identical for every worker count); /metrics reports the per-node
// build times.
//
// Overload and failure containment: -max-inflight bounds concurrently
// executing /v1 requests (excess waits up to -queue-wait, then is shed
// with 503 + Retry-After); -request-timeout is the per-request handler
// budget (expensive endpoints — /v1/diff, /v1/search — get half; 504 on
// overrun); -reload-max-churn and -reload-max-failures configure the
// reload validation gate — a rebuilt generation whose dataset churned
// more than the bound (or that is empty, unhealthy, or panicked) is
// quarantined and the server keeps answering from the last good
// generation, retrying under capped exponential backoff and reporting
// the degraded state on /readyz and /metrics. SIGINT/SIGTERM triggers a
// graceful drain bounded by -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stateowned"
	"stateowned/internal/durable"
	"stateowned/internal/fleet"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		log.Println(err)
		os.Exit(2)
	}

	// Open the durable archive before binding the port: an unwritable
	// -data-dir is a configuration error (exit 2), discovered before the
	// process starts accepting anything.
	var archive *durable.Archive
	if cfg.dataDir != "" {
		archive, err = durable.Open(durable.Options{Dir: cfg.dataDir, Retain: cfg.archiveRetain})
		if err != nil {
			log.Println(err)
			os.Exit(2)
		}
		rec := archive.Recovered()
		if n := len(rec.Generations); n > 0 {
			newest := rec.Generations[n-1].Record.Gen
			log.Printf("archive %s: %d verified generation(s), newest %d", cfg.dataDir, n, newest)
		} else {
			log.Printf("archive %s: empty, cold start", cfg.dataDir)
		}
		if note := rec.ManifestNote; note != "" {
			log.Printf("archive manifest: %s", note)
		}
		for _, q := range rec.Quarantined {
			log.Printf("archive quarantined generation %d (%s): %s", q.Gen, q.Segment, q.Reason)
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Printf("invalid -addr: %v", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch cfg.mode {
	case "single":
		err = runSingle(ctx, cfg, archive, ln)
	case "shard":
		err = runShard(ctx, cfg, archive, ln)
	case "router":
		err = runRouter(ctx, cfg, ln)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Println("shut down cleanly")
}

// buildStore builds generation 0 synchronously (single and shard
// modes) — or, with a durable archive holding verified generations,
// warm-starts from the newest one instead — and logs what went live.
func buildStore(cfg config, archive *durable.Archive) *snapshot.Store {
	if archive == nil || len(archive.Recovered().Generations) == 0 {
		log.Printf("building generation 0 (seed %d, scale %g, chaos %g)...", cfg.seed, cfg.scale, cfg.chaos)
	}
	store := snapshot.New(snapshot.Options{
		Base: stateowned.Config{
			Seed: cfg.seed, Scale: cfg.scale, Workers: cfg.workers,
			ChaosSeverity: cfg.chaos, ChaosSeed: cfg.chaosSeed,
			HijackSeverity: cfg.hijack, HijackSeed: cfg.hijackSeed,
			ROVFraction: cfg.rovFraction,
		},
		ChurnSeed: cfg.churnSeed,
		Retain:    cfg.generations,
		Archive:   archive,
		Validation: &snapshot.Validation{
			MaxChurnFraction: cfg.reloadMaxChurn,
			MaxFailures:      cfg.reloadMaxFailures,
		},
	})
	g := store.Current()
	if rg := store.RecoveredGen(); rg >= 0 {
		log.Printf("warm start: generation %d recovered from archive (%d organizations, %d state-owned ASNs); retained %v",
			g.Gen, g.Index.NumOrgs(), g.Index.NumASNs(), store.Retained())
	} else {
		log.Printf("generation 0 live: %d organizations, %d state-owned ASNs, %d minority records",
			g.Index.NumOrgs(), g.Index.NumASNs(), g.Index.NumMinority())
	}
	if degraded := g.Result.Health.DegradedSources(); len(degraded) > 0 {
		log.Printf("degraded sources: %v (see /readyz)", degraded)
	}
	return store
}

// admissionFor maps the admission flags to config, preserving the flag
// semantics: -max-inflight 0 disables admission entirely, and an
// explicit -queue-wait 0 means "no waiting" where the config's zero
// value would mean "default wait".
func admissionFor(cfg config) *serve.AdmissionConfig {
	if cfg.maxInflight <= 0 {
		return nil
	}
	a := &serve.AdmissionConfig{MaxInFlight: cfg.maxInflight, QueueWait: cfg.queueWait}
	if cfg.queueWait == 0 {
		a.QueueWait = -1
	}
	return a
}

func serveOptions(cfg config) serve.Options {
	return serve.Options{
		CacheSize:      cfg.cacheSize,
		Admission:      admissionFor(cfg),
		RequestTimeout: cfg.requestTimeout,
		DrainTimeout:   cfg.drainTimeout,
	}
}

// announce prints the machine-readable handshake the smoke tests (and
// port-0 users) parse for the bound address.
func announce(ln net.Listener) { fmt.Printf("listening on %s\n", ln.Addr()) }

// runSingle is the classic all-in-one server: build, serve, optionally
// hot-reload on a timer.
func runSingle(ctx context.Context, cfg config, archive *durable.Archive, ln net.Listener) error {
	store := buildStore(cfg, archive)
	srv := serve.NewDynamic(store.Source(), serveOptions(cfg))
	store.OnEvict(srv.InvalidateGeneration)

	if cfg.reloadEvery > 0 {
		log.Printf("hot reload on: next generation every %s, retaining %d", cfg.reloadEvery, cfg.generations)
		go store.Reload(ctx, cfg.reloadEvery, log.Printf)
	}
	announce(ln)
	return srv.Serve(ctx, ln)
}

// runShard serves one replica of the fleet: the data plane and the
// two-phase control plane. Generations advance only on the
// coordinator's stage/commit orders.
func runShard(ctx context.Context, cfg config, archive *durable.Archive, ln net.Listener) error {
	store := buildStore(cfg, archive)
	part, err := fleet.ComputePartition(store.Current().Result.Dataset, cfg.shards)
	if err != nil {
		return fmt.Errorf("computing partition: %w", err)
	}
	sh := fleet.NewShardServer(store, part, cfg.shardIndex, serveOptions(cfg))
	log.Printf("shard %d/%d ready: awaiting coordinator orders on %s", cfg.shardIndex, cfg.shards, fleet.StagePath)
	announce(ln)
	return sh.Serve(ctx, ln)
}

// runRouter is the fleet front door: adopt the partition from shard 0,
// bootstrap a coherent generation pin from the whole fleet, then serve —
// and, with -flip-every, drive the coordinated reload loop.
func runRouter(ctx context.Context, cfg config, ln net.Listener) error {
	httpc := fleet.LegClient(admissionFor(cfg))
	clients := make([]fleet.ShardClient, len(cfg.shardAddrs))
	for i, base := range cfg.shardAddrs {
		clients[i] = fleet.ShardClient{Index: i, Base: base, HTTP: httpc}
	}

	// The partition is the replicas' to declare (they compute it from
	// the generation-0 dataset); the router adopts it from shard 0 and
	// Bootstrap cross-checks every other replica against it. Replicas
	// build their world at startup, so poll patiently.
	part, err := adoptPartition(ctx, &clients[0], cfg.shards)
	if err != nil {
		return err
	}

	rt, err := fleet.NewRouter(fleet.RouterOptions{
		Partition:      part,
		Shards:         clients,
		Admission:      admissionFor(cfg),
		RequestTimeout: cfg.requestTimeout,
		Lifecycle:      serve.LifecycleOptions{DrainTimeout: cfg.drainTimeout},
	})
	if err != nil {
		return fmt.Errorf("building router: %w", err)
	}
	coord := fleet.NewCoordinator(rt, clients, fleet.CoordinatorOptions{
		// Stage calls build a whole generation on the shard; budget for a
		// build, not a ping.
		ControlTimeout: 5 * time.Minute,
	})
	gen, err := coord.Bootstrap(ctx)
	if err != nil {
		return err
	}
	log.Printf("fleet bootstrap: %d shards coherent at generation %d", len(clients), gen)

	if cfg.flipEvery > 0 {
		log.Printf("coordinated reload on: two-phase flip every %s", cfg.flipEvery)
		go coord.Run(ctx, cfg.flipEvery, log.Printf)
	}
	announce(ln)
	return rt.Serve(ctx, ln)
}

// adoptPartition polls shard 0's control plane until it answers (shards
// spend their startup building generation 0) and returns its declared
// partition.
func adoptPartition(ctx context.Context, sc *fleet.ShardClient, wantShards int) (fleet.Partition, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		st, err := sc.Status(callCtx)
		cancel()
		switch {
		case err == nil && st.Shards != wantShards:
			return fleet.Partition{}, fmt.Errorf(
				"shard 0 at %s is part of a %d-shard fleet, not %d", sc.Base, st.Shards, wantShards)
		case err == nil:
			return st.Partition, nil
		default:
			lastErr = err
		}
		if attempt%10 == 0 {
			log.Printf("waiting for shard 0 at %s: %v", sc.Base, lastErr)
		}
		select {
		case <-ctx.Done():
			return fleet.Partition{}, fmt.Errorf("waiting for shard 0 at %s: %w (last: %v)", sc.Base, ctx.Err(), lastErr)
		case <-time.After(time.Second):
		}
	}
}
