package stateowned

// Memoized rebuild support: input fingerprints for every build-graph
// node, the artifact capture/restore adapters that let the scheduler
// skip clean nodes, and the topology node's output fingerprint.
//
// Every node fingerprints its inputs at its own start, in its scheduler
// slot, and every run hands its artifact cache to the next rebuild; a
// nil Config.Memo rebuilds every node, which is the full build. The
// projection a node's fingerprint hashes must cover every byte the node
// reads that its dependencies do not carry, and an output fingerprint
// everything its dependents read — the differential harness in
// internal/snapshot holds each node to that contract by proving
// memoized chains byte-identical to memo-less rebuilds.

import (
	"sync"

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

// fingerprintInputs returns, per node, the function that computes the
// node's input fingerprint from the run's world and config
// (sched.MemoSpec.FP): the scheduler calls it in the node's slot, so
// independent nodes hash their inputs on different cores. The
// functions share the config hash and two world projections, each
// computed once on first use (the ownership projection runs the first
// control fixpoint) and safe for the pool goroutines that race for it.
// A node that hashes both asks for ownership first, so with two
// workers topology resolves ownership while geo hashes the structure.
// The config projection covers everything that parameterizes a build
// EXCEPT Workers: output is provably worker-count independent, so a
// memo recorded under one pool size must stay valid under any other.
func fingerprintInputs(cfg Config, w *world.World) map[string]func() sched.Fingerprint {
	structFP := sync.OnceValue(w.FingerprintStructure)
	ownFP := sync.OnceValue(w.FingerprintOwnership)

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

	mk := func(domain string, parts ...func() sched.Fingerprint) func() sched.Fingerprint {
		return func() sched.Fingerprint {
			// Last part first: ownership before structure.
			fps := make([]sched.Fingerprint, len(parts))
			for i := len(parts) - 1; i >= 0; i-- {
				fps[i] = parts[i]()
			}
			h := sched.NewHasher(domain)
			h.FP(cfgFP)
			for _, p := range fps {
				h.FP(p)
			}
			return h.Sum()
		}
	}
	return map[string]func() sched.Fingerprint{
		// Topology reads structure and, of ownership, whether each
		// gateway operator is state-controlled and (a non-incumbent) a
		// foreign state's subsidiary: a subset of what the full
		// ownership view hashes. Churn outside that subset rebuilds the
		// same graph, which the output fingerprint keeps from the
		// dependents.
		"topology": mk("node/topology", structFP, ownFP),
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
		// world structure (country profiles, prefixes, the world seed)
		// and config; computeCTI says why that is all.
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
// row the node owns ("" when it owns none); output, set only for
// topology, fingerprints the built product (sched.MemoSpec.Output).
type nodeMemoIO struct {
	source string
	get    func(res *Result) any
	set    func(res *Result, v any)
	output func(res *Result) sched.Fingerprint
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
			get:    func(r *Result) any { return r.Topology },
			set:    func(r *Result, v any) { r.Topology, _ = v.(*topology.Graph) },
			output: func(r *Result) sched.Fingerprint { return topologyContentFP(r.Topology) },
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
				return &ctiArtifact{monitors: r.Monitors, top: r.CTITop}
			},
			set: func(r *Result, v any) {
				a := v.(*ctiArtifact)
				r.Monitors, r.CTITop = a.monitors, a.top
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
// outage-thinned) monitor set and the per-country top picks.
type ctiArtifact struct {
	monitors []bgp.Monitor
	top      map[string][]world.ASN
}

// topologyContentFP is the topology node's output fingerprint: it
// hashes the built graph's full content, the year, the active ASN list
// and the three adjacency structures in dense order. Those are every
// field of topology.Graph (the ASN index is derived from the list), so
// two graphs with equal content fingerprints answer every query alike,
// and a rebuilt topology that matches its parent's can stand in for it.
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
