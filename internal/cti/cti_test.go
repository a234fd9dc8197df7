package cti

import (
	"math"
	"testing"

	"stateowned/internal/bgp"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// fakeGeo implements PrefixGeo with literal counts.
type fakeGeo struct {
	addr  map[world.ASN][]uint64 // per origin, per prefix index, addresses in the country
	total uint64
}

func (f fakeGeo) AddressesIn(origin world.ASN, idx int, country string) uint64 {
	ps := f.addr[origin]
	if idx >= len(ps) {
		return 0
	}
	return ps[idx]
}

func (f fakeGeo) TotalIn(country string) uint64 { return f.total }

// fakePaths builds a MonitorPaths-compatible structure through the real
// collector on a generated graph; for formula-level tests we instead use
// a hand-built world below.

// scoreMax bounds every CTI score from above, with room for rounding:
// the monitor weights w(m)/|M| and the address shares a(p,C)/A(C) each
// sum to at most 1, and 1/d <= 1.
const scoreMax = 1 + 1e-12

func TestFormulaOnGeneratedWorld(t *testing.T) {
	w := world.Generate(world.Config{Seed: 7, Scale: 0.1})
	g := topology.Build(w, topology.FinalYear)
	monitors := bgp.SelectMonitors(w, g, 30)

	// Cuba: ETECSA (AS11960) is the gateway; CTI must rank the Syrian-
	// style gateway structure with the state AS on top.
	var origins []world.ASN
	for _, asn := range g.ASes() {
		if w.ASes[asn].Country == "CU" {
			origins = append(origins, asn)
		}
	}
	if len(origins) < 2 {
		t.Skip("CU too small in this world")
	}
	mp := bgp.CollectPaths(g, monitors, origins, 0, nil)
	comp := NewComputer(mp)

	// Ground-truth prefix geolocation: every prefix of a CU AS is in CU.
	addr := map[world.ASN][]uint64{}
	var total uint64
	for _, o := range origins {
		for _, p := range w.ASes[o].Prefixes {
			addr[o] = append(addr[o], p.NumAddresses())
			total += p.NumAddresses()
		}
	}
	scores := comp.Country("CU", origins, func(o world.ASN) int { return len(addr[o]) }, fakeGeo{addr, total})
	if len(scores) == 0 {
		t.Fatal("no CTI scores for CU")
	}
	// Scores are sorted and bounded.
	for i, s := range scores {
		if s.Value <= 0 || s.Value > scoreMax {
			t.Fatalf("score %f outside (0, 1]", s.Value)
		}
		if i > 0 && s.Value > scores[i-1].Value {
			t.Fatal("scores not sorted")
		}
	}
	// The top transit AS for Cuba should be Cuban state infrastructure:
	// ETECSA's primary gateway AS carries the domestic tail.
	top := scores[0].AS
	op, _ := w.OperatorOfAS(top)
	if op == nil {
		t.Fatalf("top CTI AS %d has no operator", top)
	}
	foundETECSA := false
	for _, s := range TopK(scores, 2) {
		o, _ := w.OperatorOfAS(s.AS)
		if o != nil && o.Conglomerate == "ETECSA" {
			foundETECSA = true
		}
	}
	if !foundETECSA {
		t.Errorf("ETECSA not in Cuba's top-2 CTI (top=%d, op=%s)", top, op.BrandName)
	}
}

// TestMonitorWeighting verifies w(m) = 1/#monitors-in-AS: duplicating a
// monitor inside an AS must not change that AS-pair's contribution.
func TestMonitorWeighting(t *testing.T) {
	w := world.Generate(world.Config{Seed: 7, Scale: 0.1})
	g := topology.Build(w, topology.FinalYear)
	var origins []world.ASN
	for _, asn := range g.ASes() {
		if w.ASes[asn].Country == "SY" {
			origins = append(origins, asn)
		}
	}
	if len(origins) == 0 {
		t.Skip("no SY origins")
	}
	addr := map[world.ASN][]uint64{}
	var total uint64
	for _, o := range origins {
		for _, p := range w.ASes[o].Prefixes {
			addr[o] = append(addr[o], p.NumAddresses())
			total += p.NumAddresses()
		}
	}
	geo := fakeGeo{addr, total}
	nPfx := func(o world.ASN) int { return len(addr[o]) }

	base := bgp.SelectMonitors(w, g, 20)
	var single, double []bgp.Monitor
	for _, m := range base {
		single = append(single, m)
	}
	// Duplicate every monitor: weights halve, |M| doubles -> each AS's
	// total contribution is exactly half... no: w(m)/|M| = (1/2)/(2N)
	// per monitor x2 monitors = 1/(2N) vs 1/N. The metric definition
	// normalizes by |M|, so doubling all monitors halves nothing —
	// each AS keeps contribution (2 monitors x 1/2 weight)/(2N) = 1/(2N)
	// ... hence total scores halve. Verify the exact ratio instead.
	for _, m := range base {
		double = append(double, m, bgp.Monitor{ID: m.ID + "b", AS: m.AS})
	}
	s1 := NewComputer(bgp.CollectPaths(g, single, origins, 0, nil)).Country("SY", origins, nPfx, geo)
	s2 := NewComputer(bgp.CollectPaths(g, double, origins, 0, nil)).Country("SY", origins, nPfx, geo)
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("score set changed: %d vs %d", len(s1), len(s2))
	}
	m1 := map[world.ASN]float64{}
	for _, s := range s1 {
		m1[s.AS] = s.Value
	}
	for _, s := range s2 {
		want := m1[s.AS] / 2
		if math.Abs(s.Value-want) > 1e-12 {
			t.Fatalf("AS%d: doubled-monitor score %g, want %g", s.AS, s.Value, want)
		}
	}
}

func TestTopK(t *testing.T) {
	scores := []Score{{1, 0.5}, {2, 0.3}, {3, 0.1}}
	if got := TopK(scores, 2); len(got) != 2 || got[0].AS != 1 {
		t.Errorf("TopK = %v", got)
	}
	if got := TopK(scores, 10); len(got) != 3 {
		t.Errorf("oversized TopK = %v", got)
	}
}

func TestEmptyCountry(t *testing.T) {
	w := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	g := topology.Build(w, topology.FinalYear)
	mp := bgp.CollectPaths(g, bgp.SelectMonitors(w, g, 5), nil, 0, nil)
	comp := NewComputer(mp)
	if s := comp.Country("XX", nil, func(world.ASN) int { return 0 }, fakeGeo{nil, 0}); s != nil {
		t.Errorf("expected nil scores for empty country, got %v", s)
	}
}
