// Package stateowned reproduces, end to end, the methodology of
// "Identifying ASes of State-Owned Internet Operators" (Carisimo,
// Gamero-Garrido, Snoeren, Dainotti — ACM IMC 2021) on a synthetic,
// seeded world.
//
// A single call to Run generates the ground-truth world (countries,
// companies, equity graphs, ASes, prefixes), derives every measurement
// data source the paper consumes (BGP origin table and monitor paths,
// country-level geolocation, APNIC-style eyeball estimates, the CTI
// transit-influence metric, WHOIS, PeeringDB, AS2Org, Orbis and the
// documentary confirmation corpus), and executes the paper's three-stage
// classification pipeline:
//
//	stage 1  candidate ASes (geolocation >= 5%, eyeballs >= 5%, CTI top-2)
//	         and candidate companies (Orbis, Wikipedia + Freedom House),
//	         with AS-to-company mapping via WHOIS and PeeringDB;
//	stage 2  mechanized ownership confirmation against authoritative
//	         documents, scope filtering, subsidiary discovery;
//	stage 3  company-to-ASN mapping, AS2Org sibling expansion, and the
//	         final dataset in the paper's Listing-1 JSON schema.
//
// Because the world is synthetic, the ground truth is known, and the
// pipeline's precision/recall can be scored exactly — something the
// original study could only approximate through expert spot checks. The
// internal/analysis package regenerates every table and figure of the
// paper's evaluation from a Result.
package stateowned

import (
	"sort"
	"sync"

	"stateowned/internal/analysis"
	"stateowned/internal/as2org"
	"stateowned/internal/bgp"
	"stateowned/internal/candidates"
	"stateowned/internal/ccodes"
	"stateowned/internal/confirm"
	"stateowned/internal/cti"
	"stateowned/internal/docsrc"
	"stateowned/internal/expand"
	"stateowned/internal/eyeballs"
	"stateowned/internal/faults"
	"stateowned/internal/geo"
	"stateowned/internal/graph"
	"stateowned/internal/hijack"
	"stateowned/internal/orbis"
	"stateowned/internal/peeringdb"
	"stateowned/internal/runner"
	"stateowned/internal/sched"
	"stateowned/internal/serve"
	"stateowned/internal/topology"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// Config parameterizes a full run.
type Config struct {
	// Seed drives the world and every simulated data source.
	Seed uint64
	// Scale shrinks the world for tests (1.0 = the default experiment
	// world of roughly 10k ASes).
	Scale float64
	// Countries restricts the world to a subset (nil = all).
	Countries []string
	// Monitors sets the BGP vantage-point count (0 = 60, as in a
	// mid-sized RouteViews/RIS collector set).
	Monitors int
	// Workers bounds the build scheduler's pool: how many independent
	// substrate builds (and per-country CTI computations, per-origin BGP
	// propagations) may run concurrently. 0 selects GOMAXPROCS; 1 runs
	// the canonical serial schedule. The result is bit-identical for
	// every worker count — the determinism tests enforce it.
	Workers int

	// World, when non-nil, supplies a pre-built ground truth instead of
	// generating one from Seed/Scale/Countries — the hook the
	// generational snapshot store (internal/snapshot) uses to rebuild
	// the pipeline over a churn-evolved world. The world is adopted, not
	// copied: callers must not mutate it while the Result is alive. A
	// world generated with the same Seed/Scale/Countries yields a run
	// bit-identical to one without the override.
	World *world.World

	// Ablation switches (all false for the paper-faithful pipeline).
	DisableGeo      bool
	DisableEyeballs bool
	DisableCTI      bool
	DisableOrbis    bool
	DisableWikiFH   bool
	// DisableSiblings turns off stage-3 AS2Org expansion.
	DisableSiblings bool
	// Threshold overrides the 5% market-share cut when > 0.
	Threshold float64

	// ChaosSeverity turns on seeded fault injection when > 0 (up to 1):
	// monitor outages, WHOIS/geolocation record loss and corruption,
	// Orbis timeouts, missing documents. The hardened runner retries
	// transient faults, quarantines corrupt records and degrades
	// gracefully; Result.Health reports what was lost.
	ChaosSeverity float64
	// ChaosSeed seeds the fault plan independently of the world
	// (0 = derive from Seed), so one world can be replayed under many
	// fault episodes.
	ChaosSeed uint64

	// HijackSeverity turns on the seeded routing adversary when > 0 (up
	// to 1): a roster of exact-prefix, sub-prefix and forged-path
	// campaigns drawn by internal/hijack pollutes the monitor paths CTI
	// consumes, and the detection pass publishes what origin-based
	// monitoring would catch. Severity selects a prefix of the roster,
	// so raising it only adds campaigns.
	HijackSeverity float64
	// HijackSeed seeds the campaign roster independently of the world
	// (0 = derive from Seed), so one world can be replayed under many
	// adversary episodes.
	HijackSeed uint64
	// ROVFraction in [0,1] sets route-origin-validation deployment: the
	// nested per-AS thresholds in world/topology admit exactly the ASes
	// below the fraction, and validators neither adopt nor re-export
	// invalid announcements. At 1.0 every campaign is inert and the run
	// is byte-identical to an honest one.
	ROVFraction float64

	// Memo supplies the previous build's artifact cache: nodes whose
	// input fingerprints match re-adopt the memoized artifact instead of
	// rebuilding, provably without changing a byte of output. Nil builds
	// every node. The memo is not retained on the Result's Config (it is
	// scrubbed after the run) so holding a Result never pins the
	// previous generation's artifacts.
	Memo *sched.Memo
}

// Result carries every intermediate and final product of a run.
type Result struct {
	Config Config

	// Ground truth and substrates.
	World     *world.World
	Topology  *topology.Graph // final-year snapshot
	Geo       *geo.DB
	Eyeballs  *eyeballs.Dataset
	WHOIS     *whois.Registry
	PeeringDB *peeringdb.DB
	AS2Org    *as2org.Mapping
	Orbis     *orbis.DB
	Docs      *docsrc.Corpus
	Monitors  []bgp.Monitor
	CTITop    map[string][]world.ASN

	// Hijacks is the adversary detection report: origin changes observed
	// against the registered ownership, empty (never nil) on honest or
	// fully-ROV-gated runs. Served at /v1/hijacks.
	Hijacks *hijack.Report

	// Pipeline stages.
	Candidates   *candidates.Result
	Confirmation *confirm.Result
	Dataset      *expand.Dataset

	// Health is the degradation report of the hardened runner: per-source
	// status, records dropped and quarantined, retries spent, stages that
	// ran degraded. Always populated; all-healthy on a pristine run.
	Health *runner.Health

	// Memo is the artifact cache captured for the next rebuild (pass it
	// as the next run's Config.Memo). Like Health.Timings it is build
	// metadata: it must never feed into rendered output or determinism
	// comparisons.
	Memo *sched.Memo
	// Reused lists, in canonical node order, the build-graph nodes whose
	// artifacts were restored from Config.Memo instead of rebuilt. Empty
	// on a full build. Build metadata, like Memo.
	Reused []string

	indexOnce sync.Once
	index     *serve.Index

	graphOnce sync.Once
	graph     *graph.Graph
}

// AdoptIndex pre-seeds the lazily compiled serving index with one built
// from an identical dataset — the snapshot store calls it when a
// memoized rebuild proved the dataset unchanged, so the previous
// generation's index (immutable, safe to share) serves the new one too.
// A nil index, or an index already compiled, is ignored.
func (r *Result) AdoptIndex(idx *serve.Index) {
	if idx == nil {
		return
	}
	r.indexOnce.Do(func() { r.index = idx })
}

// AdoptGraph pre-seeds the lazily compiled relationship query plane,
// the graph-plane analogue of AdoptIndex: safe exactly when the
// topology's content, the monitor set and AS2Org are unchanged. The
// snapshot store adopts when the cti and as2org nodes restored; cti
// restores only over an unchanged topology and carries the monitors.
func (r *Result) AdoptGraph(g *graph.Graph) {
	if g == nil {
		return
	}
	r.graphOnce.Do(func() { r.graph = g })
}

// Index compiles (once, lazily) the run's dataset into the serving
// index: O(1) ASN/country/org lookups and fuzzy name search, the
// substrate of internal/serve's HTTP API and cmd/query. The index is
// immutable and safe for concurrent readers.
func (r *Result) Index() *serve.Index {
	r.indexOnce.Do(func() { r.index = serve.BuildIndex(r.Dataset) })
	return r.index
}

// Graph compiles (once, lazily) the run's relationship query plane: the
// classed adjacency, customer-cone closure, transit-dependency ranking
// and valley-free path oracle behind internal/serve's /v1/graph/*
// endpoints and cmd/query's graph modes. It reuses the run's monitor
// set when CTI selected one (so dependency scores are observed from the
// same vantage points, outages included) and derives the canonical set
// otherwise; the build fans out on the run's Workers budget and is
// bit-identical for every worker count. Nil when the run has no
// topology (a degraded build) — callers treat that as "no graph plane".
func (r *Result) Graph() *graph.Graph {
	r.graphOnce.Do(func() {
		if r.Topology == nil {
			return
		}
		monitors := r.Monitors
		if monitors == nil {
			monitors = bgp.SelectMonitors(r.World, r.Topology, r.Config.Monitors)
		}
		r.graph = graph.Build(r.Topology, monitors, r.AS2Org, r.Config.Workers)
	})
	return r.graph
}

// AnalysisData bundles the run's artifacts for internal/analysis, which
// regenerates the paper's tables and figures from them.
func (r *Result) AnalysisData() *analysis.Data {
	return &analysis.Data{
		World: r.World, Geo: r.Geo, Eye: r.Eyeballs, WHOIS: r.WHOIS,
		Cands: r.Candidates, Conf: r.Confirmation, DS: r.Dataset,
	}
}

// minMonitorQuorum is the smallest vantage set CTI is allowed to run on;
// below it the BGP feed is declared unavailable and CTI is skipped.
const minMonitorQuorum = 2

// computeCTI runs the transit-influence metric over the monitor paths for
// every transit-dominated country (the paper applies CTI in 75 such
// countries) and returns the monitor set and the per-country top-2
// transit ASes. Under a fault plan, monitors go dark first: the
// surviving set feeds CTI, and if it falls below quorum the whole
// source degrades to unavailable (the pipeline then simply lacks the C
// source, the same pathway as the DisableCTI ablation).
//
// workers bounds the internal fan-out (per-origin path collection,
// per-country CTI — the per-country computations are independent, which
// is the CTI paper's own observation). Stage notes go through mark
// rather than straight into Health so the scheduler can flush them in
// canonical node order regardless of execution interleaving.
//
// It is a plain function of what it reads, so the scheduler's rule is
// all the memo needs: the cti node's input fingerprint (world
// structure and config) and its dependencies, the geo artifact and a
// topology whose content is unchanged, cover every read. Besides those
// it reads two derived things, and neither reads ownership:
//   - the monitor set: bgp.SelectMonitors reads the topology and the
//     world seed, and outages come from the config's fault plan;
//   - the adversary plan: hijack.NewPlan reads the ASes' prefixes, the
//     ROV thresholds (country ICT and the world seed), the topology's
//     providers and the hijack config.
func computeCTI(res *Result, cfg Config, plan faults.Plan, h *runner.Health, workers int,
	mark func(stage string, degraded bool, note string)) ([]bgp.Monitor, map[string][]world.ASN) {
	monitors := bgp.SelectMonitors(res.World, res.Topology, cfg.Monitors)
	if plan.Enabled() && plan.BGP.MonitorOutageRate > 0 {
		inj := plan.Injector("bgp", faults.RecordSpec{DropRate: plan.BGP.MonitorOutageRate})
		up, dark := bgp.ApplyOutages(monitors, func(bgp.Monitor) bool { return inj.Next() == faults.Drop })
		h.NoteDamage("bgp", faults.Damage{Dropped: dark})
		monitors = up
		if len(monitors) < minMonitorQuorum {
			h.MarkUnavailable("bgp", "monitor set below quorum")
			mark("cti", true, "too few live monitors; CTI skipped")
			return nil, map[string][]world.ASN{}
		}
	}

	// Countries in scope for CTI: the paper applies the metric in 75
	// transit-dominated countries; pick the most gateway-like first.
	type ctiCand struct {
		cc    string
		score float64
	}
	var cands []ctiCand
	for _, cc := range res.World.Countries {
		prof := res.World.Profiles[cc]
		if !prof.TransitDominated {
			continue
		}
		s := 1 - prof.ICT
		if prof.GatewayConcentrated {
			s += 10
		}
		// The CTI study concentrated on Latin America and Africa; keep
		// LACNIC's transit-dominated countries inside the 75-country cap
		// (this is where the paper's CTI source surfaced ARSAT-style
		// state transit builders).
		if c, ok := ccodes.ByCode(cc); ok && c.RIR == ccodes.LACNIC {
			s += 1.5
		}
		cands = append(cands, ctiCand{cc, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].cc < cands[j].cc
	})
	const ctiCountryCap = 75
	var ctiCountries []string
	for i, c := range cands {
		if i >= ctiCountryCap {
			break
		}
		ctiCountries = append(ctiCountries, c.cc)
	}

	perCountry := map[string][]world.ASN{}
	for _, cc := range ctiCountries {
		for _, tr := range res.Geo.CountryOrigins(cc) {
			perCountry[cc] = append(perCountry[cc], tr.Origin)
		}
		world.SortASNs(perCountry[cc])
	}

	// The routing adversary, when enabled, pollutes the paths CTI reads.
	// The plan is a pure function of (world, topology, hijack knobs), so
	// building it here and in the hijack node yields the same campaigns.
	var adv *bgp.Adversary
	if cfg.HijackSeverity > 0 {
		adv = hijack.NewPlan(res.World, res.Topology, hijackConfig(cfg)).Adversary()
	}

	originSet := map[world.ASN]bool{}
	for _, cc := range ctiCountries {
		for _, o := range perCountry[cc] {
			originSet[o] = true
		}
	}
	origins := make([]world.ASN, 0, len(originSet))
	for o := range originSet {
		origins = append(origins, o)
	}
	world.SortASNs(origins)

	paths := bgp.CollectPaths(res.Topology, monitors, origins, workers, adv)
	comp := cti.NewComputer(paths)
	// Per-country CTI computations are independent reads over the frozen
	// path collection and geo snapshot: fan them out, each iteration
	// owning its result slot, then assemble the map in canonical order.
	ccPicks := make([][]world.ASN, len(ctiCountries))
	sched.ParallelFor(workers, len(ctiCountries), func(_, i int) {
		cc := ctiCountries[i]
		scores := comp.Country(cc, perCountry[cc], res.Geo.NumPrefixes, res.Geo)
		for _, s := range cti.TopK(scores, candidates.CTITopK) {
			ccPicks[i] = append(ccPicks[i], s.AS)
		}
	})
	top := make(map[string][]world.ASN, len(ctiCountries))
	for i, cc := range ctiCountries {
		if len(ccPicks[i]) > 0 {
			top[cc] = ccPicks[i]
		}
	}
	return monitors, top
}

// hijackConfig projects the adversary knobs for internal/hijack.
func hijackConfig(cfg Config) hijack.Config {
	return hijack.Config{
		Severity:    cfg.HijackSeverity,
		Seed:        cfg.HijackSeed,
		ROVFraction: cfg.ROVFraction,
	}
}

// computeHijacks runs the campaign plan through the adversarial
// collector and the plan-blind detection pass. The monitor count is
// reported even when no campaign runs, so an honest run and a
// fully-ROV-gated one publish byte-identical (empty) reports; a run
// with no topology (degraded build) publishes an empty report with no
// vantage points.
func computeHijacks(res *Result, cfg Config, workers int) *hijack.Report {
	rep := &hijack.Report{Detections: []hijack.Detection{}}
	if res.Topology == nil {
		return rep
	}
	monitors := res.Monitors
	if monitors == nil {
		monitors = bgp.SelectMonitors(res.World, res.Topology, cfg.Monitors)
	}
	rep.Monitors = len(monitors)
	if cfg.HijackSeverity <= 0 {
		return rep
	}
	plan := hijack.NewPlan(res.World, res.Topology, hijackConfig(cfg))
	victims := plan.Victims()
	if len(victims) == 0 {
		return rep
	}
	paths := bgp.CollectPaths(res.Topology, monitors, victims, workers, plan.Adversary())
	return hijack.Detect(paths, victims, res.World)
}

// runStage1 assembles the candidate inputs, honoring ablation switches.
// A source that went unavailable under faults arrives here as nil and is
// treated exactly like its ablation switch. workers bounds stage 1's
// fan-out, as it bounds CTI's.
func runStage1(res *Result, cfg Config, workers int) *candidates.Result {
	in := candidates.Inputs{
		Workers:   workers,
		WHOIS:     res.WHOIS,
		PeeringDB: res.PeeringDB,
		AS2Org:    res.AS2Org,
		Docs:      res.Docs,
		Countries: res.World.Countries,
		CTITop:    res.CTITop,
	}
	in.DisableWikiFH = cfg.DisableWikiFH
	in.Threshold = cfg.Threshold
	if !cfg.DisableGeo {
		in.Geo = res.Geo
	}
	if !cfg.DisableEyeballs {
		in.Eyeballs = res.Eyeballs
	}
	if !cfg.DisableOrbis && res.Orbis != nil {
		in.Orbis = res.Orbis
	}
	return candidates.Run(in)
}
