package stateowned

import (
	"fmt"

	"stateowned/internal/as2org"
	"stateowned/internal/candidates"
	"stateowned/internal/confirm"
	"stateowned/internal/docsrc"
	"stateowned/internal/expand"
	"stateowned/internal/eyeballs"
	"stateowned/internal/faults"
	"stateowned/internal/geo"
	"stateowned/internal/hijack"
	"stateowned/internal/orbis"
	"stateowned/internal/peeringdb"
	"stateowned/internal/runner"
	"stateowned/internal/sched"
	"stateowned/internal/topology"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// sourceOrder fixes the Health report's row order regardless of which
// source is touched first.
var sourceOrder = []string{
	"bgp", "geo", "eyeballs", "whois", "peeringdb", "as2org", "orbis", "docs",
}

// Run executes the full reproduction. With ChaosSeverity > 0 it runs
// under a seeded fault plan: sources are built through the hardened
// runner (retry with deterministic backoff), corrupt
// records are quarantined by validation passes, unavailable sources fall
// back to the matching ablation pathway, and Result.Health reports the
// degradation. With ChaosSeverity == 0 the same code path runs with a
// no-op plan, so pristine results are bit-identical to the pre-chaos
// pipeline. With Workers != 1 the independent substrate builds overlap
// on the scheduler's pool — provably without changing a byte of output.
func Run(cfg Config) *Result {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	seed := cfg.ChaosSeed
	if seed == 0 {
		seed = cfg.Seed
	}
	return runHardened(cfg, faults.NewPlan(seed, cfg.ChaosSeverity))
}

// stageNote is a deferred Health.MarkStage call: nodes buffer their
// stage notes and runHardened flushes them in canonical node order, so
// the Stages list is identical no matter how parallel execution
// interleaved the nodes.
type stageNote struct {
	stage    string
	degraded bool
	note     string
}

// buildHook, when non-nil, is called at the start of every scheduler
// node with the node's name. It exists for tests that need to inject a
// panicking build into a chosen node and prove the scheduler contains
// it; production runs never set it.
var buildHook func(node string)

// SetBuildHook installs the scheduler-node build hook (nil uninstalls)
// and returns a restore function for the previous value. The hook is
// process-global and not synchronized against concurrent Run calls —
// it exists so tests outside this package (the snapshot store's reload
// gate, chiefly) can force a chosen pipeline node to fail or panic and
// prove the failure is contained. Production code must never call it.
func SetBuildHook(fn func(node string)) (restore func()) {
	prev := buildHook
	buildHook = fn
	return func() { buildHook = prev }
}

// runHardened is the degradation-aware pipeline runner, rebuilt on the
// deterministic DAG scheduler: the five independent data sources (plus
// WHOIS-derived AS2Org and topology-derived CTI) build concurrently on
// a bounded pool over the shared world, while the three classification
// stages remain a serial tail. Every node runs behind the scheduler's
// panic guard (a panicking build degrades its source instead of killing
// the run), record faults are injected and quarantined inside the
// owning node so Health accounting is unchanged from the serial
// pipeline, and per-node wall time lands in Health.Timings.
//
// The world is ready before the graph: the caller's (the snapshot
// store's churn-evolved ground truth) or one generated from
// Seed/Scale/Countries. Every node is fingerprinted over it up front
// and memoized against Config.Memo, so a node whose inputs are
// unchanged restores its previous artifact; a nil memo builds every
// node. The build graph (stage1 additionally depends on every source
// node):
//
//	topology ──┬─ cti ─┬─ hijack
//	geo ───────┘       └─ stage1 ── stage2 ── stage3
//	eyeballs
//	whois ──── as2org
//	peeringdb
//	orbis
//	docs
func runHardened(cfg Config, plan faults.Plan) *Result {
	workers := sched.Workers(cfg.Workers)
	h := runner.NewHealth(plan.Severity)
	h.Workers = workers
	for _, s := range sourceOrder {
		h.Source(s)
	}
	bo := runner.DefaultBackoff()

	w := cfg.World
	if w == nil {
		w = world.Generate(world.Config{Seed: cfg.Seed, Scale: cfg.Scale, Countries: cfg.Countries})
	}
	res := &Result{Config: cfg, Health: h, World: w}
	fps := fingerprintInputs(cfg, w)
	memoWiring := memoIO()

	// inject returns the per-source fault stream, or nil (keep all) when
	// the plan is off or the source has no fault channel.
	inject := func(source string, spec faults.RecordSpec) *faults.Injector {
		if !plan.Enabled() || spec.Zero() {
			return nil
		}
		return plan.Injector(source, spec)
	}

	// Graph assembly. Each add captures a per-node note buffer: nodes
	// never call h.MarkStage directly, so the Stages list stays in
	// canonical order under any execution interleaving. Each node also
	// gets its MemoSpec: the input fingerprint from fingerprintInputs
	// and a capture/restore pair that moves the node's Result fields,
	// its Health row and its buffered notes in and out of the artifact
	// cache. The buildHook wraps only the real build fn — a restored
	// node never fires it, which is what lets the metamorphic tests
	// assert "zero nodes executed".
	g := sched.New()
	var noteBufs []*[]stageNote
	add := func(name string, fn func(mark func(string, bool, string)) error, deps ...string) {
		buf := &[]stageNote{}
		noteBufs = append(noteBufs, buf)
		mark := func(stage string, degraded bool, note string) {
			*buf = append(*buf, stageNote{stage, degraded, note})
		}
		wrapped := func() error {
			if buildHook != nil {
				buildHook(name)
			}
			return fn(mark)
		}
		io := memoWiring[name]
		g.AddMemo(name, sched.MemoSpec{
			FP: fps[name],
			Capture: func() any {
				a := memoArtifact{value: io.get(res), notes: append([]stageNote(nil), *buf...)}
				if io.source != "" {
					a.health = *h.Source(io.source)
					a.hasHealth = true
				}
				return a
			},
			Restore: func(v any) {
				a := v.(memoArtifact)
				io.set(res, a.value)
				if a.hasHealth {
					*h.Source(io.source) = a.health
				}
				*buf = append([]stageNote(nil), a.notes...)
			},
		}, wrapped, deps...)
	}

	add("topology", func(func(string, bool, string)) error {
		res.Topology = topology.Build(res.World, topology.FinalYear)
		return nil
	})

	// Geolocation feed: build, then inject snapshot faults and run the
	// validation pass so impossible assignments never reach the pipeline.
	add("geo", func(func(string, bool, string)) error {
		res.Geo, _ = runner.Do(h, bo, "geo",
			func(int) (*geo.DB, error) { return geo.Build(res.World), nil })
		if in := inject("geo", plan.Geo); in != nil {
			h.NoteDamage("geo", res.Geo.Degrade(in))
			h.NoteQuarantined("geo", res.Geo.Quarantine())
		}
		return nil
	})

	add("eyeballs", func(func(string, bool, string)) error {
		res.Eyeballs, _ = runner.Do(h, bo, "eyeballs",
			func(int) (*eyeballs.Dataset, error) { return eyeballs.Build(res.World), nil })
		return nil
	})

	add("whois", func(func(string, bool, string)) error {
		res.WHOIS, _ = runner.Do(h, bo, "whois",
			func(int) (*whois.Registry, error) { return whois.Build(res.World), nil })
		if in := inject("whois", plan.WHOIS); in != nil {
			h.NoteDamage("whois", res.WHOIS.Degrade(in))
			h.NoteQuarantined("whois", res.WHOIS.Quarantine())
		}
		return nil
	})

	add("peeringdb", func(func(string, bool, string)) error {
		res.PeeringDB, _ = runner.Do(h, bo, "peeringdb",
			func(int) (*peeringdb.DB, error) { return peeringdb.Build(res.World), nil })
		return nil
	})

	// AS2Org is inferred from whatever WHOIS survived, so WHOIS damage
	// propagates into sibling inference exactly as it would in the wild.
	add("as2org", func(func(string, bool, string)) error {
		res.AS2Org, _ = runner.Do(h, bo, "as2org",
			func(int) (*as2org.Mapping, error) { return as2org.Infer(res.WHOIS), nil })
		return nil
	}, "whois")

	// Orbis is the transiently failing source: the plan's first Timeouts
	// attempts fail and runner.Do retries them with backoff. If the retry
	// budget runs out, the run degrades to the same path as
	// the DisableOrbis ablation (stage 1 without the O source).
	add("orbis", func(mark func(string, bool, string)) error {
		orbisIn := inject("orbis", plan.Orbis.Records)
		orbisDB, orbisOK := runner.Do(h, bo, "orbis",
			func(attempt int) (*orbis.DB, error) {
				return orbis.Fetch(res.World, attempt, plan.Orbis.Timeouts, orbisIn)
			})
		if orbisOK {
			res.Orbis = orbisDB
			if orbisIn != nil {
				h.NoteDamage("orbis", orbisIn.Damage())
				h.NoteQuarantined("orbis", res.Orbis.Quarantine())
			}
		} else {
			mark("stage1", true, "orbis unavailable; candidates ran without the O source")
		}
		return nil
	})

	add("docs", func(func(string, bool, string)) error {
		res.Docs, _ = runner.Do(h, bo, "docs",
			func(int) (*docsrc.Corpus, error) { return docsrc.Build(res.World), nil })
		if in := inject("docs", plan.Docs); in != nil {
			h.NoteDamage("docs", res.Docs.Degrade(in))
		}
		return nil
	})

	add("cti", func(mark func(string, bool, string)) error {
		if cfg.DisableCTI {
			res.CTITop = map[string][]world.ASN{}
			return nil
		}
		res.Monitors, res.CTITop, res.ctiFP = computeCTI(res, cfg, plan, h, workers,
			fps["cti"], prevCTIArtifact(cfg.Memo), mark)
		return nil
	}, "topology", "geo")

	// The routing adversary rides after CTI so it reuses the same
	// outage-thinned monitor set. Detection is plan-blind: honest and
	// fully-ROV-gated runs publish byte-identical empty reports.
	add("hijack", func(func(string, bool, string)) error {
		res.Hijacks = computeHijacks(res, cfg, workers)
		return nil
	}, "topology", "cti")

	// The serial tail: the classification stages consume every source.
	add("stage1", func(func(string, bool, string)) error {
		res.Candidates = runStage1(res, cfg)
		return nil
	}, "geo", "eyeballs", "whois", "peeringdb", "as2org", "orbis", "docs", "cti")
	// Stages 2 and 3 substitute an empty input when their predecessor
	// panicked (and so produced nothing): they still run and degrade
	// gracefully, exactly as under the old per-stage panic guard.
	add("stage2", func(func(string, bool, string)) error {
		cands := res.Candidates
		if cands == nil {
			cands = &candidates.Result{}
		}
		res.Confirmation = confirm.Run(confirm.Inputs{
			WHOIS: res.WHOIS, PeeringDB: res.PeeringDB, Docs: res.Docs,
		}, cands.Companies)
		return nil
	}, "stage1")
	add("stage3", func(func(string, bool, string)) error {
		conf := res.Confirmation
		if conf == nil {
			conf = &confirm.Result{}
		}
		res.Dataset = expand.Run(conf, res.AS2Org, expand.Options{
			DisableSiblingExpansion: cfg.DisableSiblings,
			WHOIS:                   res.WHOIS,
		})
		return nil
	}, "stage2")

	results, next := g.RunMemo(workers, cfg.Memo)
	res.Memo = next

	// Post-run accounting, all in declaration (= canonical serial)
	// order: flush each node's deferred stage notes, then translate a
	// guarded panic into the serial pipeline's degradation pathway — a
	// source build panic trips that source's circuit, a stage panic
	// yields the stage's empty fallback and a degraded-stage note.
	isSource := map[string]bool{}
	for _, s := range sourceOrder {
		isSource[s] = true
	}
	h.Timings = make([]runner.NodeTiming, len(results))
	for i, r := range results {
		h.Timings[i] = runner.NodeTiming{Node: r.Name, Wall: r.Wall, Reused: r.Reused}
		if r.Reused {
			res.Reused = append(res.Reused, r.Name)
		}
		for _, n := range *noteBufs[i] {
			h.MarkStage(n.stage, n.degraded, n.note)
		}
		if r.Err == nil {
			continue
		}
		if isSource[r.Name] {
			h.MarkUnavailable(r.Name, r.Err.Error())
		} else {
			h.MarkStage(r.Name, true, fmt.Sprintf("node panicked, substituted empty result: %v", r.Err))
		}
	}

	// Scrub the memo input off the retained Config: a Result must never
	// pin the previous generation's artifact cache (and through it, a
	// transitive chain of every generation ever built).
	res.Config.Memo = nil

	// Empty fallbacks for anything a panicked node failed to produce,
	// mirroring the old guardStage contract: downstream consumers see an
	// empty-but-valid value, never nil stages.
	if res.CTITop == nil {
		res.CTITop = map[string][]world.ASN{}
	}
	if res.Hijacks == nil {
		res.Hijacks = &hijack.Report{Detections: []hijack.Detection{}}
	}
	if res.Candidates == nil {
		res.Candidates = &candidates.Result{PerSourceASes: map[candidates.Source][]world.ASN{}}
	}
	if res.Confirmation == nil {
		res.Confirmation = &confirm.Result{}
	}
	if res.Dataset == nil {
		res.Dataset = &expand.Dataset{}
	}
	return res
}
