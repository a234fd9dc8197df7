package stateowned

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, plus pipeline-stage and substrate benchmarks, and the
// ablation benches DESIGN.md calls out. Regeneration benchmarks reuse a
// shared pipeline run (the object of study is the analysis cost); the
// stage benchmarks measure the pipeline itself.
//
// Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"stateowned/internal/analysis"
	"stateowned/internal/as2org"
	"stateowned/internal/bgp"
	"stateowned/internal/candidates"
	"stateowned/internal/churn"
	"stateowned/internal/confirm"
	"stateowned/internal/docsrc"
	"stateowned/internal/expand"
	"stateowned/internal/eyeballs"
	"stateowned/internal/geo"
	"stateowned/internal/graph"
	"stateowned/internal/ownership"
	"stateowned/internal/serve"
	"stateowned/internal/topology"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// benchScale keeps individual benchmark iterations under a second while
// exercising every code path; the experiment binary runs at scale 1.0.
const benchScale = 0.15

var (
	benchOnce sync.Once
	benchRes  *Result
	benchData *analysis.Data
)

func benchSetup(b *testing.B) (*Result, *analysis.Data) {
	b.Helper()
	benchOnce.Do(func() {
		benchRes = Run(Config{Seed: 42, Scale: benchScale})
		benchData = benchRes.AnalysisData()
		benchData.EnsureSnapshots()
	})
	return benchRes, benchData
}

// --- Substrate benchmarks -------------------------------------------------

func BenchmarkWorldGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		world.Generate(world.Config{Seed: 42, Scale: benchScale})
	}
}

func BenchmarkTopologyBuild(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.Build(res.World, topology.FinalYear)
	}
}

// BenchmarkRoutePropagation runs the propagation kernel for one origin
// on a warmed per-worker Scratch, within the scope of every AS, which
// routes the whole graph (bgp.Propagate), and within the monitors'
// scope (CTI's collector, its hijack overlays and the graph build);
// both must report 0 B/op and 0 allocs/op even at -benchtime 1x.
// Warming takes two calls: the kernel swaps its two frontiers every
// layer, so after one call one of them is still short and the first
// measured call would grow it.
func BenchmarkRoutePropagation(b *testing.B) {
	res, _ := benchSetup(b)
	topo := res.Topology
	every := make([]int, topo.NumASes())
	for i := range every {
		every[i] = i
	}
	for _, c := range []struct {
		name  string
		scope *bgp.Scope
	}{
		{"all-ases", bgp.NewScope(topo, every)},
		{"scoped", bgp.NewScope(topo, bgp.MonitorIndices(topo, res.Monitors))},
	} {
		b.Run(c.name, func(b *testing.B) {
			var s bgp.Scratch
			for range 2 {
				s.Propagate(topo, 7473, c.scope)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Propagate(topo, 7473, c.scope)
			}
		})
	}
}

func BenchmarkCustomerCone(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Topology.ConeSize(7473)
	}
}

func BenchmarkGeoBuild(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geo.Build(res.World)
	}
}

func BenchmarkEyeballsBuild(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eyeballs.Build(res.World)
	}
}

func BenchmarkWhoisAndAS2Org(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as2org.Infer(whois.Build(res.World))
	}
}

func BenchmarkDocCorpusBuild(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docsrc.Build(res.World)
	}
}

// --- Pipeline-stage benchmarks --------------------------------------------

func BenchmarkStage1Candidates(b *testing.B) {
	res, _ := benchSetup(b)
	in := candidates.Inputs{
		Geo: res.Geo, Eyeballs: res.Eyeballs, CTITop: res.CTITop,
		WHOIS: res.WHOIS, PeeringDB: res.PeeringDB, AS2Org: res.AS2Org,
		Orbis: res.Orbis, Docs: res.Docs, Countries: res.World.Countries,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidates.Run(in)
	}
}

func BenchmarkStage2Confirm(b *testing.B) {
	res, _ := benchSetup(b)
	in := confirm.Inputs{WHOIS: res.WHOIS, PeeringDB: res.PeeringDB, Docs: res.Docs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		confirm.Run(in, res.Candidates.Companies)
	}
}

func BenchmarkStage3Expand(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expand.Run(res.Confirmation, res.AS2Org, expand.Options{})
	}
}

func BenchmarkFullPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(Config{Seed: 42, Scale: benchScale})
	}
}

// --- Scheduler benchmarks ---------------------------------------------------

// benchRunScales are the world sizes the serial-vs-parallel comparison
// runs at; EXPERIMENTS.md records the speedups. Scale 2.0 takes tens of
// seconds per iteration — select these benches explicitly
// (-bench 'BenchmarkRun(Serial|Parallel)') rather than with -bench=.
// on a slow machine.
var benchRunScales = []float64{0.5, 1.0, 2.0}

func benchRunAt(b *testing.B, scale float64, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		Run(Config{Seed: 42, Scale: scale, Workers: workers})
	}
}

// BenchmarkRunSerial is the canonical serial schedule (Workers=1 —
// which also forces BGP path collection and per-country CTI serial, so
// this really is the single-threaded cost, not a GOMAXPROCS run in
// disguise).
func BenchmarkRunSerial(b *testing.B) {
	for _, scale := range benchRunScales {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			benchRunAt(b, scale, 1)
		})
	}
}

// BenchmarkRunParallel is the same pipeline on the scheduler pool. The
// worker count is GOMAXPROCS but at least 4, so on small hosts the
// comparison degenerates to measuring scheduler overhead on an
// oversubscribed pool rather than real speedup — EXPERIMENTS.md records
// which case a given table came from.
func BenchmarkRunParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, scale := range benchRunScales {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			benchRunAt(b, scale, workers)
		})
	}
}

// --- One benchmark per table and figure ------------------------------------

func BenchmarkHeadline(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeHeadline(d)
	}
}

func BenchmarkFigure1(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeFigure1(d)
	}
}

func BenchmarkFigure3(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeFigure3(d)
	}
}

func BenchmarkFigure4(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeFigure4(d)
	}
}

func BenchmarkFigure5(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeFigure5(d)
	}
}

func BenchmarkFigure6(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeFigure6(d)
	}
}

func BenchmarkFigure7(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeFigure7(d)
	}
}

func BenchmarkTable1(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable1(d)
	}
}

func BenchmarkTable2(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable2(d)
	}
}

func BenchmarkTable3(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable3(d)
	}
}

func BenchmarkTable4(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable4(d)
	}
}

func BenchmarkTable5(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable5(d, 10)
	}
}

func BenchmarkTable6(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable6(d)
	}
}

func BenchmarkTable7(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable7(d)
	}
}

func BenchmarkTable8(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeTable8(d, 0.9)
	}
}

func BenchmarkOrbisAudit(b *testing.B) {
	res, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeOrbisAudit(d, res.Orbis)
	}
}

func BenchmarkGroundTruthScore(b *testing.B) {
	_, d := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeScore(d, nil)
	}
}

// --- Ablation benchmarks (DESIGN.md §3) -------------------------------------

// ablationRecall runs a configured pipeline and reports recall vs ground
// truth as a benchmark metric.
func ablationRecall(b *testing.B, cfg Config) {
	b.Helper()
	var recall, asns float64
	for i := 0; i < b.N; i++ {
		res := Run(cfg)
		s := analysis.ComputeScore(res.AnalysisData(), nil)
		recall = s.Recall
		asns = float64(len(res.Dataset.AllASNs()))
	}
	b.ReportMetric(recall, "recall")
	b.ReportMetric(asns, "state-ASNs")
}

// BenchmarkAblation5pct sweeps the market-share threshold (the paper's
// 5% cut, §4.1): a larger threshold shrinks the candidate list and costs
// recall of true state-owned ASes.
func BenchmarkAblation5pct(b *testing.B) {
	for _, th := range []struct {
		name string
		v    float64
	}{{"1pct", 0.01}, {"5pct", 0.05}, {"10pct", 0.10}, {"20pct", 0.20}} {
		b.Run(th.name, func(b *testing.B) {
			ablationRecall(b, Config{Seed: 42, Scale: benchScale, Threshold: th.v})
		})
	}
}

// BenchmarkAblationSources drops one input source at a time, measuring
// each source's contribution (the paper's "all sources provide a unique
// contribution" finding).
func BenchmarkAblationSources(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"all", Config{Seed: 42, Scale: benchScale}},
		{"no-geo", Config{Seed: 42, Scale: benchScale, DisableGeo: true}},
		{"no-eyeballs", Config{Seed: 42, Scale: benchScale, DisableEyeballs: true}},
		{"no-cti", Config{Seed: 42, Scale: benchScale, DisableCTI: true}},
		{"no-orbis", Config{Seed: 42, Scale: benchScale, DisableOrbis: true}},
		{"no-wikifh", Config{Seed: 42, Scale: benchScale, DisableWikiFH: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { ablationRecall(b, c.cfg) })
	}
}

// BenchmarkAblationSiblings disables stage-3 AS2Org expansion, measuring
// the sibling-recall loss (§6).
func BenchmarkAblationSiblings(b *testing.B) {
	b.Run("with-siblings", func(b *testing.B) {
		ablationRecall(b, Config{Seed: 42, Scale: benchScale})
	})
	b.Run("no-siblings", func(b *testing.B) {
		ablationRecall(b, Config{Seed: 42, Scale: benchScale, DisableSiblings: true})
	})
}

// --- Serving-subsystem benchmarks -------------------------------------------

func BenchmarkIndexBuild(b *testing.B) {
	res, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve.BuildIndex(res.Dataset)
	}
}

// benchProbeASNs mixes dataset hits with guaranteed misses so lookup
// benchmarks measure both paths, the way real query traffic does.
func benchProbeASNs(res *Result) []world.ASN {
	probes := append([]world.ASN(nil), res.Dataset.AllASNs()...)
	for i := 0; i < len(probes); i += 2 {
		probes = append(probes, world.ASN(1<<30)+world.ASN(i))
	}
	return probes
}

// BenchmarkIndexLookup measures one per-ASN answer through the index;
// compare with BenchmarkLinearScanLookup, the pre-index implementation
// of the same question (EXPERIMENTS.md records the ratio).
func BenchmarkIndexLookup(b *testing.B) {
	res, _ := benchSetup(b)
	idx := res.Index()
	probes := benchProbeASNs(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.ASN(probes[i%len(probes)])
	}
}

// BenchmarkLinearScanLookup is the displaced implementation: the nested
// organizations×ASNs scan plus the minority scan that cmd/query ran per
// question before the serving index existed.
func BenchmarkLinearScanLookup(b *testing.B) {
	res, _ := benchSetup(b)
	ds := res.Dataset
	probes := benchProbeASNs(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := probes[i%len(probes)]
		for j := range ds.Organizations {
			for _, a := range ds.ASNs[j].ASNs {
				if a == target {
					_ = &ds.Organizations[j]
				}
			}
		}
		for j := range ds.Minority {
			for _, a := range ds.Minority[j].ASNs {
				if a == target {
					_ = &ds.Minority[j]
				}
			}
		}
	}
}

// BenchmarkServeASN measures a full HTTP round trip of the per-ASN
// endpoint (cache on, so the steady state is a cache replay).
func BenchmarkServeASN(b *testing.B) {
	res, _ := benchSetup(b)
	srv := serve.New(res.Index(), serve.Options{Health: res.Health, CacheSize: 1024})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	probes := benchProbeASNs(res)
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(fmt.Sprintf("%s/v1/asn/%d", ts.URL, probes[i%len(probes)]))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// --- Graph query-plane benchmarks -------------------------------------------

// graphBenchState caches one substrate per scale — the topology, monitor
// set and org mapping graph.Build consumes, plus one compiled graph for
// the lookup benches and a probe set spread across the AS space. Worlds
// at scale 2.0 take tens of seconds to generate, so all three graph
// benchmarks at a given scale share it.
type graphBenchState struct {
	topo     *topology.Graph
	monitors []bgp.Monitor
	orgs     *as2org.Mapping
	graph    *graph.Graph
	probes   []world.ASN
}

var (
	graphBenchMu    sync.Mutex
	graphBenchCache = map[float64]*graphBenchState{}
)

func graphBenchSetup(b *testing.B, scale float64) *graphBenchState {
	b.Helper()
	graphBenchMu.Lock()
	defer graphBenchMu.Unlock()
	if s, ok := graphBenchCache[scale]; ok {
		return s
	}
	w := world.Generate(world.Config{Seed: 42, Scale: scale})
	topo := topology.Build(w, topology.FinalYear)
	s := &graphBenchState{
		topo:     topo,
		monitors: bgp.SelectMonitors(w, topo, 0),
		orgs:     as2org.Infer(whois.Build(w)),
	}
	s.graph = graph.Build(s.topo, s.monitors, s.orgs, 0)
	n := topo.NumASes()
	step := n/256 + 1
	for i := 0; i < n; i += step {
		s.probes = append(s.probes, topo.ASNAt(i))
	}
	graphBenchCache[scale] = s
	return s
}

// BenchmarkGraphBuild measures compiling the whole relationship index —
// classed adjacency, cone closure and the per-origin dependency
// propagation. This is the price a snapshot generation pays at
// build/stage time so that /v1/graph/* never computes on the request
// path.
func BenchmarkGraphBuild(b *testing.B) {
	for _, scale := range benchRunScales {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			s := graphBenchSetup(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.Build(s.topo, s.monitors, s.orgs, 0)
			}
		})
	}
}

// BenchmarkConeLookup measures one customer-cone answer through the
// precomputed graph — what /v1/graph/cone/{asn} costs per request.
// Compare with BenchmarkNaiveConeTraversal, the on-demand BFS it
// displaced (EXPERIMENTS.md records the ratio).
func BenchmarkConeLookup(b *testing.B) {
	for _, scale := range benchRunScales {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			s := graphBenchSetup(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.graph.ConeSize(s.probes[i%len(s.probes)])
			}
		})
	}
}

// BenchmarkNaiveConeTraversal is the displaced implementation: the BFS
// over customer edges that topology.ConeSize runs per question, the way
// cmd/query answered cone queries before the graph plane existed.
func BenchmarkNaiveConeTraversal(b *testing.B) {
	for _, scale := range benchRunScales {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			s := graphBenchSetup(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.topo.ConeSize(s.probes[i%len(s.probes)])
			}
		})
	}
}

// BenchmarkChurnAndAudit measures the §9 ageing model: five years of
// ownership churn plus a maintenance audit of the dataset, reporting the
// maintenance fraction as a metric.
func BenchmarkChurnAndAudit(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res := Run(Config{Seed: 42, Scale: 0.05})
		b.StartTimer()
		churn.Evolve(res.World, 5, 2026, churn.DefaultRates())
		frac = churn.RunAudit(res.Dataset, res.World).MaintenanceFraction
	}
	b.ReportMetric(frac, "maintenance-fraction")
}

// BenchmarkAblationIndirect quantifies how much of the ground truth is
// only reachable through indirect-chain equity resolution (funds,
// holdcos — the Telekom Malaysia structure, §2): it compares full control
// resolution with a direct-government-holdings-only criterion.
func BenchmarkAblationIndirect(b *testing.B) {
	res, _ := benchSetup(b)
	w := res.World
	var indirectOnly float64
	for i := 0; i < b.N; i++ {
		n := 0
		for _, id := range w.OperatorIDs {
			op := w.Operators[id]
			if !op.Kind.InScope() {
				continue
			}
			if !w.ControlOf(op).Controlled() {
				continue
			}
			// Direct-only criterion: sum government holdings only.
			direct := 0.0
			for _, h := range w.Graph.Holders(op.Entity) {
				if e, ok := w.Graph.Entity(h.Holder); ok && e.Kind == ownership.KindGovernment {
					direct += h.Share
				}
			}
			if direct < 0.50 {
				n += len(op.ASNs) // lost without indirect resolution
			}
		}
		indirectOnly = float64(n)
	}
	b.ReportMetric(indirectOnly, "ASNs-needing-indirect-chains")
}
