package stateowned

// Memoized rebuild support: input fingerprints for every build-graph
// node, the artifact capture/restore adapters that let the scheduler
// skip clean nodes, and the CTI node's cutoff.
//
// Every run fingerprints its world before the graph runs and hands its
// artifact cache to the next rebuild; a nil Config.Memo makes every
// node dirty, which is the full build. The projection a node's
// fingerprint hashes must cover every byte the node reads that its
// dependencies do not carry — the differential harness in
// internal/snapshot holds each node to that contract by proving
// memoized chains byte-identical to memo-less rebuilds.

import (
	"stateowned/internal/as2org"
	"stateowned/internal/bgp"
	"stateowned/internal/candidates"
	"stateowned/internal/confirm"
	"stateowned/internal/docsrc"
	"stateowned/internal/expand"
	"stateowned/internal/eyeballs"
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

// fingerprintInputs computes every node's input fingerprint from the
// run's world and config. The config projection covers everything that
// parameterizes a build EXCEPT Workers: output is provably worker-count
// independent, so a memo recorded under one pool size must stay valid
// under any other.
func fingerprintInputs(cfg Config, w *world.World) map[string]sched.Fingerprint {
	structFP := w.FingerprintStructure()
	ownFP := w.FingerprintOwnership()
	topoOwnFP := w.FingerprintTopologyOwnership()

	ch := sched.NewHasher("config")
	ch.U64(cfg.Seed)
	ch.F64(cfg.Scale)
	ch.I64(int64(len(cfg.Countries)))
	for _, cc := range cfg.Countries {
		ch.Str(cc)
	}
	ch.I64(int64(cfg.Monitors))
	ch.F64(cfg.Threshold)
	ch.Bool(cfg.DisableGeo)
	ch.Bool(cfg.DisableEyeballs)
	ch.Bool(cfg.DisableCTI)
	ch.Bool(cfg.DisableOrbis)
	ch.Bool(cfg.DisableWikiFH)
	ch.Bool(cfg.DisableSiblings)
	ch.F64(cfg.ChaosSeverity)
	chaos := cfg.ChaosSeed
	if chaos == 0 {
		chaos = cfg.Seed
	}
	ch.U64(chaos)
	ch.F64(cfg.HijackSeverity)
	hjSeed := cfg.HijackSeed
	if hjSeed == 0 {
		hjSeed = cfg.Seed
	}
	ch.U64(hjSeed)
	ch.F64(cfg.ROVFraction)
	cfgFP := ch.Sum()

	mk := func(domain string, parts ...sched.Fingerprint) sched.Fingerprint {
		h := sched.NewHasher(domain)
		h.FP(cfgFP)
		for _, p := range parts {
			h.FP(p)
		}
		return h.Sum()
	}
	return map[string]sched.Fingerprint{
		// Topology reads structure plus the narrow two-bit ownership
		// view; ownership churn outside that view leaves it clean.
		"topology": mk("node/topology", structFP, topoOwnFP),
		// These sources never read the equity graph.
		"geo":       mk("node/geo", structFP),
		"eyeballs":  mk("node/eyeballs", structFP),
		"whois":     mk("node/whois", structFP),
		"peeringdb": mk("node/peeringdb", structFP),
		// AS2Org reads only the WHOIS artifact; its dependency on the
		// whois node covers that, the fingerprint covers the rest.
		"as2org": mk("node/as2org", structFP),
		// Orbis and the documents corpus read the full ownership view.
		"orbis": mk("node/orbis", structFP, ownFP),
		"docs":  mk("node/docs", structFP, ownFP),
		// CTI reads the topology and geo artifacts (dependencies) plus
		// world structure (country profiles) and config.
		"cti": mk("node/cti", structFP),
		// The adversary reads world structure (prefixes, ICT, ROV
		// thresholds) and ownership (the detection report's ground
		// truth); its dependencies on topology and cti carry the rest.
		"hijack": mk("node/hijack", structFP, ownFP),
		// The stages read only upstream artifacts; their dependencies on
		// every source (stage1) and the predecessor stage (2, 3) carry
		// all content sensitivity.
		"stage1": mk("node/stage1", structFP),
		"stage2": mk("node/stage2"),
		"stage3": mk("node/stage3"),
	}
}

// nodeMemoIO declares how one node's product maps onto Result fields
// and Health state, so a generic capture/restore adapter can memoize
// it. get/set move the node's Result field(s); source names the Health
// row the node owns ("" when it owns none).
type nodeMemoIO struct {
	source string
	get    func(res *Result) any
	set    func(res *Result, v any)
}

// memoArtifact is the captured product of one node: its Result value,
// a value copy of the Health row it owns, and its buffered stage notes.
// Artifacts are shared between generations, never deep-copied — the
// pipeline contract is that node products are immutable once built (the
// snapshot package's race regression test enforces it).
type memoArtifact struct {
	value     any
	health    runner.SourceHealth
	hasHealth bool
	notes     []stageNote
}

// memoIO returns the artifact wiring for every build-graph node.
func memoIO() map[string]nodeMemoIO {
	return map[string]nodeMemoIO{
		"topology": {
			get: func(r *Result) any { return r.Topology },
			set: func(r *Result, v any) { r.Topology, _ = v.(*topology.Graph) },
		},
		"geo": {
			source: "geo",
			get:    func(r *Result) any { return r.Geo },
			set:    func(r *Result, v any) { r.Geo, _ = v.(*geo.DB) },
		},
		"eyeballs": {
			source: "eyeballs",
			get:    func(r *Result) any { return r.Eyeballs },
			set:    func(r *Result, v any) { r.Eyeballs, _ = v.(*eyeballs.Dataset) },
		},
		"whois": {
			source: "whois",
			get:    func(r *Result) any { return r.WHOIS },
			set:    func(r *Result, v any) { r.WHOIS, _ = v.(*whois.Registry) },
		},
		"peeringdb": {
			source: "peeringdb",
			get:    func(r *Result) any { return r.PeeringDB },
			set:    func(r *Result, v any) { r.PeeringDB, _ = v.(*peeringdb.DB) },
		},
		"as2org": {
			source: "as2org",
			get:    func(r *Result) any { return r.AS2Org },
			set:    func(r *Result, v any) { r.AS2Org, _ = v.(*as2org.Mapping) },
		},
		"orbis": {
			source: "orbis",
			get:    func(r *Result) any { return r.Orbis },
			set:    func(r *Result, v any) { r.Orbis, _ = v.(*orbis.DB) },
		},
		"docs": {
			source: "docs",
			get:    func(r *Result) any { return r.Docs },
			set:    func(r *Result, v any) { r.Docs, _ = v.(*docsrc.Corpus) },
		},
		"cti": {
			source: "bgp",
			get: func(r *Result) any {
				return &ctiArtifact{monitors: r.Monitors, top: r.CTITop, fp: r.ctiFP}
			},
			set: func(r *Result, v any) {
				a := v.(*ctiArtifact)
				r.Monitors, r.CTITop, r.ctiFP = a.monitors, a.top, a.fp
			},
		},
		"hijack": {
			get: func(r *Result) any { return r.Hijacks },
			set: func(r *Result, v any) { r.Hijacks, _ = v.(*hijack.Report) },
		},
		"stage1": {
			get: func(r *Result) any { return r.Candidates },
			set: func(r *Result, v any) { r.Candidates, _ = v.(*candidates.Result) },
		},
		"stage2": {
			get: func(r *Result) any { return r.Confirmation },
			set: func(r *Result, v any) { r.Confirmation, _ = v.(*confirm.Result) },
		},
		"stage3": {
			get: func(r *Result) any { return r.Dataset },
			set: func(r *Result, v any) { r.Dataset, _ = v.(*expand.Dataset) },
		},
	}
}

// ctiArtifact is the CTI node's memoized product: the (possibly
// outage-thinned) monitor set, the per-country top picks, and the
// cutoff fingerprint the next rebuild checks before recomputing them.
type ctiArtifact struct {
	monitors []bgp.Monitor
	top      map[string][]world.ASN
	fp       sched.Fingerprint
}

// prevCTIArtifact unwraps the previous generation's CTI artifact from
// the memo, if one survived trust filtering.
func prevCTIArtifact(m *sched.Memo) *ctiArtifact {
	art, ok := m.Lookup("cti")
	if !ok {
		return nil
	}
	wrapped, ok := art.Value.(memoArtifact)
	if !ok {
		return nil
	}
	ca, _ := wrapped.value.(*ctiArtifact)
	return ca
}

// ctiCutoff fingerprints everything the CTI computation reads once
// its node re-runs: the node fingerprint (config and world structure,
// which fix the country selection and every country's geolocation
// slice), the built topology's full content, the live monitor set and
// the adversary plan (zero when the adversary is off). A match proves
// every country's picks unchanged, so the previous top picks are
// reused whole; any difference recomputes every country.
func ctiCutoff(nodeFP sched.Fingerprint, t *topology.Graph, monitors []bgp.Monitor, advFP sched.Fingerprint) sched.Fingerprint {
	h := sched.NewHasher("cti/cutoff")
	h.FP(nodeFP)
	h.FP(topologyContentFP(t))
	h.FP(monitorsContentFP(monitors))
	h.FP(advFP)
	return h.Sum()
}

// topologyContentFP hashes the built topology graph's full content:
// year, active ASN list and the three adjacency structures in dense
// order. Two topologies with equal content fingerprints yield identical
// path collections for any monitor/origin set, which is what lets a
// re-run CTI node prove its picks unchanged even though the topology
// node itself was rebuilt.
func topologyContentFP(t *topology.Graph) sched.Fingerprint {
	h := sched.NewHasher("topology/content")
	h.I64(int64(t.Year))
	asns := t.ASes()
	h.I64(int64(len(asns)))
	for _, a := range asns {
		h.U64(uint64(a))
	}
	hashAdj := func(adj func(int) []int) {
		for i := 0; i < t.NumASes(); i++ {
			row := adj(i)
			h.I64(int64(len(row)))
			for _, j := range row {
				h.I64(int64(j))
			}
		}
	}
	hashAdj(t.ProviderIdx)
	hashAdj(t.CustomerIdx)
	hashAdj(t.PeerIdx)
	return h.Sum()
}

// monitorsContentFP hashes the live monitor set after outage injection.
func monitorsContentFP(monitors []bgp.Monitor) sched.Fingerprint {
	h := sched.NewHasher("bgp/monitors")
	h.I64(int64(len(monitors)))
	for _, m := range monitors {
		h.Str(m.ID)
		h.U64(uint64(m.AS))
	}
	return h.Sum()
}
