// Command query answers the questions a downstream user asks of the
// dataset: is this ASN state-owned, by whom, on what evidence; what
// does the state own in a given country; and the relational questions
// behind the /v1/graph/* plane — who neighbors an AS and in what role,
// which transits its observed paths depend on, what its customer cone
// contains, and the valley-free route between two ASes. It is a thin
// client of the serving index (internal/serve) and the compiled
// relationship graph (internal/graph) — the same structures cmd/serve
// exposes over HTTP — so answers come from O(result) lookups, not
// on-demand traversals.
//
// Usage:
//
//	query [-seed N] [-scale F] [-gen N] -asn 7473
//	query [-seed N] [-scale F] [-gen N] -country AO
//	query [-seed N] [-scale F] -shards 4 -asn 7473
//	query [-seed N] [-scale F] -neighbors 7473 [-class provider]
//	query [-seed N] [-scale F] -upstreams 7473
//	query [-seed N] [-scale F] -cone 7473
//	query [-seed N] [-scale F] -path 7473:3356
//	query [-seed N] [-scale F] -hijack 0.4 [-rov-fraction 0.25] -hijacks
//
// The query modes (-asn, -country, -neighbors, -upstreams, -cone,
// -path, -hijacks) are mutually exclusive — pick exactly one. The
// adversary knobs (-hijack, -hijack-seed, -rov-fraction) parameterize
// the world build like -seed does: -hijacks prints the detection
// report an honest origin-vs-ownership scan produces over the polluted
// paths (empty without -hijack, exactly as /v1/hijacks serves it). -gen N answers
// from dataset generation N — the world aged N steps under the seeded
// ownership-churn model, rebuilt through the full pipeline — matching
// what a cmd/serve instance with the same seeds serves for ?gen=N.
//
// -shards N is the fleet diagnostic: alongside the -asn answer it
// prints which replica of an N-replica fleet the router asks first for
// the ASN, computed from the same partition function a
// `serve -mode shard` fleet routes /v1/asn reads with. It only makes
// sense per-ASN, so combining it with any other mode is an error (only
// /v1/asn reads have an affinity).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"stateowned"
	"stateowned/internal/expand"
	"stateowned/internal/fleet"
	"stateowned/internal/graph"
	"stateowned/internal/hijack"
	"stateowned/internal/report"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
	"stateowned/internal/world"
)

func main() {
	seed := flag.Uint64("seed", 42, "world seed")
	scale := flag.Float64("scale", 1.0, "world scale")
	asn := flag.Uint64("asn", 0, "look up one ASN")
	country := flag.String("country", "", "list a country's state-owned ASes")
	neighbors := flag.Uint64("neighbors", 0, "list an ASN's relationship-classed neighbors")
	class := flag.String("class", "", "restrict -neighbors to one class (provider, customer, peer or sibling)")
	upstreams := flag.Uint64("upstreams", 0, "rank the transits an ASN's observed paths depend on")
	cone := flag.Uint64("cone", 0, "print an ASN's transitive customer cone")
	pathPair := flag.String("path", "", "valley-free shortest path between two ASNs, as FROM:TO")
	hijacks := flag.Bool("hijacks", false, "print the generation's hijack detection report (/v1/hijacks)")
	hijackSev := flag.Float64("hijack", 0, "routing-adversary severity in [0,1] (0 = off)")
	hijackSeed := flag.Uint64("hijack-seed", 0, "campaign-roster seed (0 = derive from -seed)")
	rovFraction := flag.Float64("rov-fraction", 0, "route-origin-validation deployment fraction in [0,1]")
	gen := flag.Int("gen", 0, "dataset generation to answer from (0 = the pristine build)")
	shards := flag.Int("shards", 0, "fleet diagnostic: also print which replica of an N-replica fleet the router asks first for -asn (0 = off)")
	churnSeed := flag.Uint64("churn-seed", 0, "ownership-churn schedule seed (0 = derive from -seed)")
	flag.Parse()
	modes := 0
	for _, on := range []bool{*asn != 0, *country != "", *neighbors != 0, *upstreams != 0, *cone != 0, *pathPair != "", *hijacks} {
		if on {
			modes++
		}
	}
	switch {
	case *scale <= 0:
		fmt.Fprintln(os.Stderr, "query: invalid -scale: must be > 0")
		os.Exit(2)
	case *gen < 0:
		fmt.Fprintln(os.Stderr, "query: invalid -gen: must be >= 0")
		os.Exit(2)
	case *hijackSev < 0 || *hijackSev > 1:
		fmt.Fprintln(os.Stderr, "query: invalid -hijack: severity must be in [0,1]")
		os.Exit(2)
	case *rovFraction < 0 || *rovFraction > 1:
		fmt.Fprintln(os.Stderr, "query: invalid -rov-fraction: must be in [0,1]")
		os.Exit(2)
	case modes == 0:
		fmt.Fprintln(os.Stderr, "query: need one of -asn, -country, -neighbors, -upstreams, -cone, -path or -hijacks")
		os.Exit(2)
	case modes > 1:
		fmt.Fprintln(os.Stderr, "query: -asn, -country, -neighbors, -upstreams, -cone, -path and -hijacks are mutually exclusive; pick one query mode")
		os.Exit(2)
	case *class != "" && *neighbors == 0:
		fmt.Fprintln(os.Stderr, "query: -class only applies to -neighbors")
		os.Exit(2)
	case *shards < 0 || *shards > fleet.MaxShards:
		fmt.Fprintf(os.Stderr, "query: invalid -shards: must be in [0, %d]\n", fleet.MaxShards)
		os.Exit(2)
	case *shards > 0 && *asn == 0:
		fmt.Fprintln(os.Stderr, "query: -shards is a per-ASN diagnostic; use it with -asn")
		os.Exit(2)
	}
	cls := graph.Provider
	if *class != "" {
		var ok bool
		if cls, ok = graph.ParseClass(*class); !ok {
			fmt.Fprintf(os.Stderr, "query: unknown -class %q (want provider, customer, peer or sibling)\n", *class)
			os.Exit(2)
		}
	}
	var from, to world.ASN
	if *pathPair != "" {
		var ok bool
		if from, to, ok = parsePathPair(*pathPair); !ok {
			fmt.Fprintf(os.Stderr, "query: invalid -path %q: want FROM:TO ASNs\n", *pathPair)
			os.Exit(2)
		}
	}

	base := stateowned.Config{
		Seed: *seed, Scale: *scale,
		HijackSeverity: *hijackSev, HijackSeed: *hijackSeed, ROVFraction: *rovFraction,
	}
	var idx *serve.Index
	var ds *expand.Dataset
	var graphOf func() *graph.Graph
	var rep *hijack.Report
	if *gen == 0 && *churnSeed == 0 {
		res := stateowned.Run(base)
		idx, ds, graphOf, rep = res.Index(), res.Dataset, res.Graph, res.Hijacks
	} else {
		// A churned generation: the snapshot store evolves the world
		// through -gen seeded churn steps, exactly what a cmd/serve
		// instance with the same seeds answers for ?gen=N. Generation N
		// is the live one when the loop ends; the default ring keeps only
		// a few predecessors resident on the way. A quarantined advance
		// would leave the store on its last good generation forever.
		store := snapshot.New(snapshot.Options{Base: base, ChurnSeed: *churnSeed})
		for store.Current().Gen < *gen {
			if store.Advance() == nil {
				fmt.Fprintf(os.Stderr, "query: generation %d quarantined: %s\n",
					store.Current().Gen+1, store.Degraded().Reason)
				os.Exit(1)
			}
		}
		g := store.Current()
		idx, ds, graphOf, rep = g.Index, g.Result.Dataset, g.Result.Graph, g.Result.Hijacks
	}

	switch {
	case *asn != 0:
		queryASN(idx, world.ASN(*asn))
		if *shards > 0 {
			queryShard(ds, *shards, world.ASN(*asn))
		}
	case *country != "":
		queryCountry(idx, *country)
	case *neighbors != 0:
		queryNeighbors(graphOf(), world.ASN(*neighbors), *class != "", cls)
	case *upstreams != 0:
		queryUpstreams(graphOf(), world.ASN(*upstreams))
	case *cone != 0:
		queryCone(graphOf(), world.ASN(*cone))
	case *hijacks:
		queryHijacks(rep)
	default:
		queryPath(graphOf(), from, to)
	}
}

// queryHijacks prints the generation's origin-change detections — the
// same report /v1/hijacks serves, as a table.
func queryHijacks(rep *hijack.Report) {
	if rep == nil || len(rep.Detections) == 0 {
		mon := 0
		if rep != nil {
			mon = rep.Monitors
		}
		fmt.Printf("no origin changes detected (%d monitors)\n", mon)
		return
	}
	t := report.NewTable(fmt.Sprintf("Observed origin changes (%d monitors)", rep.Monitors),
		"victim ASN", "observed origin", "monitors", "victim cc", "observed cc", "state-owned", "cross-border")
	for _, d := range rep.Detections {
		so, xb := "", ""
		if d.VictimStateOwned {
			so = "yes"
		}
		if d.CrossBorder {
			xb = "yes"
		}
		t.AddRow(uint32(d.Victim), uint32(d.Observed), d.Monitors, d.VictimCountry, d.ObservedCountry, so, xb)
	}
	fmt.Println(t.String())
}

// parsePathPair splits a FROM:TO flag value into two ASNs.
func parsePathPair(s string) (from, to world.ASN, ok bool) {
	a, b, found := strings.Cut(s, ":")
	if !found {
		return 0, 0, false
	}
	fn, errA := strconv.ParseUint(a, 10, 32)
	tn, errB := strconv.ParseUint(b, 10, 32)
	if errA != nil || errB != nil || fn == 0 || tn == 0 {
		return 0, 0, false
	}
	return world.ASN(fn), world.ASN(tn), true
}

func queryASN(idx *serve.Index, target world.ASN) {
	org, minority, owned := idx.ASN(target)
	if owned {
		rec := org.Record
		fmt.Printf("AS%d is STATE-OWNED\n", target)
		fmt.Printf("  organization:  %s (%s)\n", rec.OrgName, rec.OrgID)
		fmt.Printf("  conglomerate:  %s\n", rec.ConglomerateName)
		fmt.Printf("  owner state:   %s (%s)\n", rec.OwnershipCC, rec.OwnershipCountryName)
		if rec.IsForeignSubsidiary() {
			fmt.Printf("  operates in:   %s (%s) — foreign subsidiary\n", rec.TargetCC, rec.TargetCountryName)
		}
		fmt.Printf("  confirmed by:  %s\n", rec.Source)
		fmt.Printf("  quote:         %q (%s)\n", rec.Quote, rec.QuoteLang)
		if rec.URL != "" {
			fmt.Printf("  url:           %s\n", rec.URL)
		}
		fmt.Printf("  input sources: %v\n", rec.Inputs)
		fmt.Printf("  sibling ASNs:  %v\n", org.ASNs)
		return
	}
	if len(minority) > 0 {
		for _, m := range minority {
			fmt.Printf("AS%d is MINORITY state-owned: %s holds %.1f%% of %s\n",
				target, m.Owner, m.Share*100, m.OrgName)
		}
		return
	}
	fmt.Printf("AS%d: no state ownership detected\n", target)
}

// queryShard prints the fleet-routing diagnostic: which replica of an
// n-replica fleet the router asks first for the ASN, under the
// partition a fleet with these seeds would compute.
func queryShard(ds *expand.Dataset, n int, target world.ASN) {
	part, err := fleet.ComputePartition(ds, n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "query: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("  fleet:         replica %d of %d is asked first for AS%d (partition bounds %v)\n",
		part.ShardOf(target), n, target, part.Bounds)
}

func queryCountry(idx *serve.Index, cc string) {
	cc = serve.CanonicalCC(cc)
	orgs, minority := idx.Country(cc)

	t := report.NewTable("State-owned ASes operating in "+cc,
		"ASN", "organization", "owner", "foreign", "source")
	for _, o := range orgs {
		foreign := ""
		if o.Record.IsForeignSubsidiary() {
			foreign = "yes"
		}
		for _, a := range o.ASNs {
			t.AddRow(uint32(a), o.Record.OrgName, o.Record.OwnershipCC, foreign, o.Record.Source)
		}
	}
	if t.NumRows() == 0 && len(minority) == 0 {
		fmt.Printf("no state-owned ASes found operating in %s\n", cc)
		return
	}
	if t.NumRows() > 0 {
		fmt.Println(t.String())
	}
	if len(minority) > 0 {
		mt := report.NewTable("Minority state holdings in "+cc,
			"ASN", "organization", "owner", "share")
		for _, m := range minority {
			for _, a := range m.ASNs {
				mt.AddRow(uint32(a), m.OrgName, m.Owner, fmt.Sprintf("%.1f%%", m.Share*100))
			}
		}
		fmt.Println(mt.String())
	}
}

// notInTopology is the shared not-found answer of the graph modes.
func notInTopology(g *graph.Graph, target world.ASN) bool {
	if g.Active(target) {
		return false
	}
	fmt.Printf("AS%d is not in the topology\n", target)
	return true
}

func queryNeighbors(g *graph.Graph, target world.ASN, filtered bool, cls graph.Class) {
	if notInTopology(g, target) {
		return
	}
	if filtered {
		ns, _ := g.Neighbors(target, cls)
		fmt.Printf("AS%d has %d %s neighbors: %v\n", target, len(ns), cls, ns)
		return
	}
	fmt.Printf("AS%d neighbors:\n", target)
	for _, c := range graph.Classes() {
		ns, _ := g.Neighbors(target, c)
		fmt.Printf("  %-9s %4d  %v\n", c.String()+":", len(ns), ns)
	}
}

func queryUpstreams(g *graph.Graph, target world.ASN) {
	if notInTopology(g, target) {
		return
	}
	deps, _ := g.Upstreams(target)
	total := g.PathsObserved(target)
	if len(deps) == 0 {
		fmt.Printf("AS%d: no transit dependencies observed (%d monitor paths, %d monitors)\n",
			target, total, g.NumMonitors())
		return
	}
	t := report.NewTable(fmt.Sprintf("Transit dependencies of AS%d (%d paths from %d monitors)",
		target, total, g.NumMonitors()),
		"transit ASN", "paths", "score")
	for _, d := range deps {
		t.AddRow(uint32(d.Transit), d.Paths, fmt.Sprintf("%.3f", d.Score))
	}
	fmt.Println(t.String())
}

func queryCone(g *graph.Graph, target world.ASN) {
	if notInTopology(g, target) {
		return
	}
	members := g.Cone(target)
	fmt.Printf("AS%d customer cone: %d ASes\n", target, len(members))
	fmt.Printf("  %v\n", members)
}

func queryPath(g *graph.Graph, from, to world.ASN) {
	if notInTopology(g, from) || notInTopology(g, to) {
		return
	}
	p := g.Path(from, to)
	if p == nil {
		fmt.Printf("no valley-free path from AS%d to AS%d\n", from, to)
		return
	}
	hops := make([]string, len(p))
	for i, a := range p {
		hops[i] = fmt.Sprintf("AS%d", a)
	}
	fmt.Printf("valley-free path (%d hops): %s\n", len(p)-1, strings.Join(hops, " -> "))
}
