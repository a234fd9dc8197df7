package graph

import (
	"testing"

	"stateowned/internal/as2org"
	"stateowned/internal/bgp"
	"stateowned/internal/topology"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// BenchmarkGraphPath measures one valley-free path answer — what
// /v1/graph/path/{from}/{to} costs per request — over 256 fixed
// endpoint pairs spread across a seed-42, scale-0.5 world.
func BenchmarkGraphPath(b *testing.B) {
	w := world.Generate(world.Config{Seed: 42, Scale: 0.5})
	topo := topology.Build(w, topology.FinalYear)
	g := Build(topo, bgp.SelectMonitors(w, topo, 0), as2org.Infer(whois.Build(w)), 0)
	n := topo.NumASes()
	pairs := make([][2]world.ASN, 256)
	for k := range pairs {
		pairs[k] = [2]world.ASN{topo.ASNAt(k * n / len(pairs)), topo.ASNAt((k*37 + 11) % n)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		g.Path(p[0], p[1])
	}
}
