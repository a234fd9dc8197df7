package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"stateowned/internal/fleet"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
)

// maxArchiveRetain caps -archive-retain: a larger window is almost
// certainly a typo'd number, and each archived generation is a full
// dataset export on disk.
const maxArchiveRetain = 1024

// config is the fully parsed and validated command configuration. One
// process runs in exactly one of three modes:
//
//   - single: the classic all-in-one server (build the world, serve it,
//     optionally hot-reload generations on a timer).
//   - shard: one fleet replica — builds the world, serves the whole
//     dataset plus the /fleet control plane, and advances generations
//     only on the coordinator's two-phase orders (never on a timer).
//   - router: the fleet front door — owns no data, sends each read to
//     one of the replicas listed in -shard-addrs (failing over to the
//     next) and drives their coherent reloads.
type config struct {
	mode string
	addr string

	// World-build knobs (single and shard modes).
	seed        uint64
	scale       float64
	workers     int
	chaos       float64
	chaosSeed   uint64
	churnSeed   uint64
	hijack      float64
	hijackSeed  uint64
	rovFraction float64

	// Serving knobs.
	cacheSize      int
	generations    int
	maxInflight    int
	queueWait      time.Duration
	requestTimeout time.Duration
	drainTimeout   time.Duration

	// Reload knobs (single mode only; fleet reloads are coordinated).
	reloadEvery       time.Duration
	reloadMaxChurn    float64
	reloadMaxFailures int

	// Incremental rebuilds (single and shard modes: anywhere a store
	// builds generations).
	incremental bool

	// Durable archive (single and shard modes: anywhere a store owns
	// data). dataDir enables crash-consistent persistence of every
	// committed generation and warm-start recovery at boot;
	// archiveRetain bounds the on-disk generation window.
	dataDir       string
	archiveRetain int

	// Fleet knobs.
	shards     int
	shardIndex int
	shardAddrs []string
	flipEvery  time.Duration
}

// parseFlags parses and validates the command line. Any error —
// malformed flags, out-of-range values, or a contradictory fleet-mode
// combination — is returned for main to report and exit 2 on, so the
// whole surface is testable without spawning processes.
func parseFlags(args []string, output io.Writer) (config, error) {
	var cfg config
	var shardAddrs string
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.StringVar(&cfg.mode, "mode", "single", "process role: single (all-in-one), shard (one fleet replica of the whole dataset + control plane), router (fleet front door)")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	fs.Uint64Var(&cfg.seed, "seed", 42, "world seed")
	fs.Float64Var(&cfg.scale, "scale", 1.0, "world scale")
	fs.IntVar(&cfg.workers, "workers", 0, "build-scheduler pool size (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
	fs.Float64Var(&cfg.chaos, "chaos", 0, "fault-injection severity in [0,1] (0 = off)")
	fs.Uint64Var(&cfg.chaosSeed, "chaos-seed", 0, "fault-plan seed (0 = derive from -seed)")
	fs.Float64Var(&cfg.hijack, "hijack", 0, "routing-adversary severity in [0,1] (0 = off): seeded prefix-hijack campaigns pollute monitor paths and feed /v1/hijacks")
	fs.Uint64Var(&cfg.hijackSeed, "hijack-seed", 0, "campaign-roster seed (0 = derive from -seed)")
	fs.Float64Var(&cfg.rovFraction, "rov-fraction", 0, "route-origin-validation deployment fraction in [0,1]; 1.0 neutralizes every campaign (byte-identical to an honest run)")
	fs.IntVar(&cfg.cacheSize, "cache", 1024, "response-cache capacity in entries (0 disables caching)")
	fs.DurationVar(&cfg.reloadEvery, "reload-every", 0, "single mode: rebuild and hot-swap the next dataset generation on this cadence (0 = serve generation 0 forever)")
	fs.IntVar(&cfg.generations, "generations", snapshot.DefaultRetain, "retention ring: how many generations stay pinnable via ?gen=N")
	fs.Uint64Var(&cfg.churnSeed, "churn-seed", 0, "ownership-churn schedule seed (0 = derive from -seed)")
	fs.IntVar(&cfg.maxInflight, "max-inflight", serve.DefaultMaxInFlight, "admission control: max concurrently executing /v1 requests (0 = off)")
	fs.DurationVar(&cfg.queueWait, "queue-wait", serve.DefaultQueueWait, "admission control: how long an over-limit request may wait for a slot before being shed with 503")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", serve.DefaultRequestTimeout, "per-request handler budget; expensive endpoints get half (0 = no deadline)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", serve.DefaultDrainTimeout, "graceful-shutdown drain budget after SIGINT/SIGTERM")
	fs.Float64Var(&cfg.reloadMaxChurn, "reload-max-churn", snapshot.DefaultMaxChurnFraction, "reload gate: quarantine a rebuilt generation whose state-owned ASN set churned more than this fraction (0 rejects any change; >= 1 disables the bound)")
	fs.IntVar(&cfg.reloadMaxFailures, "reload-max-failures", 0, "reload gate: stop retrying after this many consecutive quarantined rebuilds and serve last-known-good until restart (0 = retry forever)")
	fs.BoolVar(&cfg.incremental, "incremental", false, "rebuild generations incrementally: reuse the previous generation's artifacts for pipeline nodes whose inputs did not churn (byte-identical output, less rebuild work)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable generation archive directory: every committed generation persists here (crash-consistent), and a restarted process warm-starts from the newest verified one ('' = memory only)")
	fs.IntVar(&cfg.archiveRetain, "archive-retain", 0, "with -data-dir: how many generations stay archived on disk (0 = default; may exceed -generations)")
	fs.IntVar(&cfg.shards, "shards", 0, "fleet size (shard mode: the replica count, which sets the /v1/asn affinity ranges; router mode: optional cross-check against -shard-addrs)")
	fs.IntVar(&cfg.shardIndex, "shard-index", -1, "shard mode: this shard's position in [0, -shards)")
	fs.StringVar(&shardAddrs, "shard-addrs", "", "router mode: comma-separated shard base addresses, in shard order")
	fs.DurationVar(&cfg.flipEvery, "flip-every", 0, "router mode: drive a coherent two-phase fleet reload on this cadence (0 = no automatic flips)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if shardAddrs != "" {
		for _, a := range strings.Split(shardAddrs, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return cfg, fmt.Errorf("invalid -shard-addrs: empty address in %q", shardAddrs)
			}
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			cfg.shardAddrs = append(cfg.shardAddrs, a)
		}
	}
	return cfg, validate(&cfg, set)
}

// validate enforces value ranges and, above all, mode coherence: flags
// that contradict the chosen mode are hard errors, not silent no-ops —
// a fleet operator who passes -reload-every to a shard almost certainly
// believes timers drive fleet reloads, and that belief must be
// corrected at startup, not discovered during an incoherent flip.
func validate(cfg *config, set map[string]bool) error {
	switch {
	case cfg.scale <= 0:
		return fmt.Errorf("invalid -scale: must be > 0")
	case cfg.workers < 0:
		return fmt.Errorf("invalid -workers: must be >= 0")
	case cfg.chaos < 0 || cfg.chaos > 1:
		return fmt.Errorf("invalid -chaos: severity must be in [0,1]")
	case cfg.hijack < 0 || cfg.hijack > 1:
		return fmt.Errorf("invalid -hijack: severity must be in [0,1]")
	case cfg.rovFraction < 0 || cfg.rovFraction > 1:
		return fmt.Errorf("invalid -rov-fraction: must be in [0,1]")
	case cfg.cacheSize < 0:
		return fmt.Errorf("invalid -cache: must be >= 0")
	case cfg.reloadEvery < 0:
		return fmt.Errorf("invalid -reload-every: must be >= 0")
	case cfg.generations < 1:
		return fmt.Errorf("invalid -generations: must be >= 1")
	case cfg.maxInflight < 0 || cfg.maxInflight > serve.MaxInFlightCap:
		return fmt.Errorf("invalid -max-inflight: must be in [0, %d]", serve.MaxInFlightCap)
	case cfg.queueWait < 0:
		return fmt.Errorf("invalid -queue-wait: must be >= 0")
	case cfg.requestTimeout < 0:
		return fmt.Errorf("invalid -request-timeout: must be >= 0")
	case cfg.drainTimeout <= 0:
		return fmt.Errorf("invalid -drain-timeout: must be > 0")
	case cfg.reloadMaxChurn < 0:
		return fmt.Errorf("invalid -reload-max-churn: must be >= 0")
	case cfg.reloadMaxFailures < 0:
		return fmt.Errorf("invalid -reload-max-failures: must be >= 0")
	case cfg.flipEvery < 0:
		return fmt.Errorf("invalid -flip-every: must be >= 0")
	case cfg.archiveRetain < 0 || cfg.archiveRetain > maxArchiveRetain:
		return fmt.Errorf("invalid -archive-retain: must be in [0, %d]", maxArchiveRetain)
	}
	if err := validateMode(cfg, set); err != nil {
		return err
	}
	// Cross-flag dependency, checked after mode coherence so a router
	// operator passing -archive-retain hears "contradicts -mode router",
	// not a hint to add -data-dir (which also contradicts).
	if cfg.archiveRetain > 0 && cfg.dataDir == "" {
		return fmt.Errorf("-archive-retain needs -data-dir (nothing to retain without an archive)")
	}
	return nil
}

// validateMode enforces mode coherence: flags that contradict the
// chosen mode are hard errors, plus each mode's own required fields.
func validateMode(cfg *config, set map[string]bool) error {
	reject := func(flags ...string) error {
		for _, f := range flags {
			if set[f] {
				return fmt.Errorf("-%s contradicts -mode %s", f, cfg.mode)
			}
		}
		return nil
	}
	switch cfg.mode {
	case "single":
		return reject("shards", "shard-index", "shard-addrs", "flip-every")
	case "shard":
		// A shard never reloads on its own timer — generations advance
		// only through the coordinator's stage/commit orders, or the fleet
		// loses coherence. Router-only flags are equally contradictory.
		if err := reject("reload-every", "shard-addrs", "flip-every"); err != nil {
			return err
		}
		if cfg.shards < 1 || cfg.shards > fleet.MaxShards {
			return fmt.Errorf("invalid -shards: shard mode needs a fleet size in [1, %d]", fleet.MaxShards)
		}
		if cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shards {
			return fmt.Errorf("invalid -shard-index: must be in [0, %d)", cfg.shards)
		}
		return nil
	case "router":
		// The router owns no data: every world-build and reload-gate flag
		// is a contradiction (the shards build the world; the coordinator,
		// not a timer, reloads it).
		if err := reject("seed", "scale", "workers", "chaos", "chaos-seed", "churn-seed",
			"hijack", "hijack-seed", "rov-fraction",
			"generations", "cache", "reload-every", "reload-max-churn", "reload-max-failures",
			"incremental", "shard-index", "data-dir", "archive-retain"); err != nil {
			return err
		}
		if len(cfg.shardAddrs) == 0 {
			return fmt.Errorf("router mode needs -shard-addrs")
		}
		if len(cfg.shardAddrs) > fleet.MaxShards {
			return fmt.Errorf("invalid -shard-addrs: %d shards exceeds the maximum of %d",
				len(cfg.shardAddrs), fleet.MaxShards)
		}
		if set["shards"] && cfg.shards != len(cfg.shardAddrs) {
			return fmt.Errorf("-shards %d contradicts -shard-addrs (%d addresses)",
				cfg.shards, len(cfg.shardAddrs))
		}
		cfg.shards = len(cfg.shardAddrs)
		return nil
	default:
		return fmt.Errorf("invalid -mode %q: want single, shard or router", cfg.mode)
	}
}
