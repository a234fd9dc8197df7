package hijack

import (
	"reflect"
	"sort"
	"testing"

	"stateowned/internal/bgp"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

var (
	testW = world.Generate(world.Config{Seed: 7, Scale: 0.1})
	testG = topology.Build(testW, topology.FinalYear)
)

func TestNewPlanDeterministic(t *testing.T) {
	cfg := Config{Severity: 0.6, ROVFraction: 0.3}
	a := NewPlan(testW, testG, cfg)
	b := NewPlan(testW, testG, cfg)
	if !reflect.DeepEqual(a.Campaigns, b.Campaigns) {
		t.Fatal("campaign roster not deterministic")
	}
	if !reflect.DeepEqual(a.ROV, b.ROV) {
		t.Fatal("ROV deployment not deterministic")
	}
	// A different seed must draw a different roster (astronomically
	// unlikely to collide on a non-trivial roster).
	c := NewPlan(testW, testG, Config{Severity: 0.6, Seed: 99, ROVFraction: 0.3})
	if reflect.DeepEqual(a.Campaigns, c.Campaigns) {
		t.Fatal("distinct seeds drew identical rosters")
	}
}

func TestSeverityZeroIsInert(t *testing.T) {
	p := NewPlan(testW, testG, Config{Severity: 0, ROVFraction: 0.5})
	if len(p.Campaigns) != 0 {
		t.Fatalf("severity 0 planned %d campaigns", len(p.Campaigns))
	}
	if p.Adversary() != nil {
		t.Fatal("severity 0 produced an active adversary")
	}
	if len(p.ROV) != 0 {
		t.Fatal("severity 0 materialized a ROV set; the honest pipeline must not depend on -rov-fraction")
	}
}

// Severity s < s' must select a strict prefix: the roster is drawn once
// and severity only chooses how much of it runs.
func TestSeverityPrefixNesting(t *testing.T) {
	severities := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	var prev *Plan
	for _, sev := range severities {
		p := NewPlan(testW, testG, Config{Severity: sev})
		if len(p.Campaigns) == 0 {
			t.Fatalf("severity %.2f planned no campaigns", sev)
		}
		if prev != nil {
			if len(p.Campaigns) < len(prev.Campaigns) {
				t.Fatalf("severity %.2f planned fewer campaigns (%d) than a lower severity (%d)",
					sev, len(p.Campaigns), len(prev.Campaigns))
			}
			if !reflect.DeepEqual(prev.Campaigns, p.Campaigns[:len(prev.Campaigns)]) {
				t.Fatalf("severity %.2f roster is not an extension of the lower-severity roster", sev)
			}
		}
		prev = p
	}
	full := NewPlan(testW, testG, Config{Severity: 1})
	if max := len(full.Campaigns); max > 0 {
		// The divisor bounds the roster: ~1 campaign per 8 routed origins.
		routed := 0
		for _, asn := range testG.ASes() {
			if as, ok := testW.AS(asn); ok && len(as.Prefixes) > 0 {
				routed++
			}
		}
		if max > routed/rosterDivisor+1 {
			t.Fatalf("full roster %d exceeds the divisor bound for %d routed origins", max, routed)
		}
	}
}

// Raising the ROV fraction must only ever add validators — the per-AS
// thresholds are fixed, the fraction just moves the cut line.
func TestROVDeploymentNesting(t *testing.T) {
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	var prev map[world.ASN]bool
	for _, f := range fractions {
		cur := testG.ROVDeployment(testW, f)
		for asn := range prev {
			if !cur[asn] {
				t.Fatalf("AS%d validates at fraction %.2f but not at a higher one", asn, f)
			}
		}
		if prev != nil && len(cur) < len(prev) {
			t.Fatalf("deployment shrank from %d to %d at fraction %.2f", len(prev), len(cur), f)
		}
		prev = cur
	}
	if len(testG.ROVDeployment(testW, 0)) != 0 {
		t.Fatal("fraction 0 deployed validators")
	}
	full := testG.ROVDeployment(testW, 1)
	if got, want := len(full), testG.NumASes(); got != want {
		t.Fatalf("fraction 1 deployed %d of %d ASes", got, want)
	}
}

// Detect must equal an independent naive scan of the same observations:
// every (victim, terminal-AS) mismatch counted, nothing else consulted.
func TestDetectEqualsNaiveScan(t *testing.T) {
	plan := NewPlan(testW, testG, Config{Severity: 1})
	if len(plan.Campaigns) == 0 {
		t.Skip("no campaigns at this scale")
	}
	monitors := bgp.SelectMonitors(testW, testG, 30)
	victims := plan.Victims()
	mp := bgp.CollectPaths(testG, monitors, victims, 2, plan.Adversary())
	rep := Detect(mp, victims, testW)
	if rep.Monitors != len(monitors) {
		t.Fatalf("report monitors = %d, want %d", rep.Monitors, len(monitors))
	}

	// The naive scan: re-walk every (monitor, victim) pair by hand.
	type change struct{ victim, observed world.ASN }
	naive := map[change]int{}
	for mi := range monitors {
		for _, v := range victims {
			if p := mp.Path(mi, v); len(p) > 0 && p[len(p)-1] != v {
				naive[change{v, p[len(p)-1]}]++
			}
		}
	}
	if len(naive) != len(rep.Detections) {
		t.Fatalf("naive scan found %d origin changes, report has %d", len(naive), len(rep.Detections))
	}
	if len(rep.Detections) == 0 {
		t.Fatal("full-severity adversary produced zero detections")
	}
	for _, d := range rep.Detections {
		if naive[change{d.Victim, d.Observed}] != d.Monitors {
			t.Fatalf("detection %d→%d counts %d monitors, naive scan %d",
				d.Victim, d.Observed, d.Monitors, naive[change{d.Victim, d.Observed}])
		}
		as, ok := testW.AS(d.Victim)
		if !ok || d.VictimCountry != as.Country {
			t.Fatalf("victim AS%d country %q not the registry's", d.Victim, d.VictimCountry)
		}
		_, so := testW.TrueStateOwnedAS(d.Victim)
		if d.VictimStateOwned != so {
			t.Fatalf("victim AS%d state-owned flag wrong", d.Victim)
		}
	}
	if !sort.SliceIsSorted(rep.Detections, func(i, j int) bool {
		a, b := rep.Detections[i], rep.Detections[j]
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		return a.Observed < b.Observed
	}) {
		t.Fatal("detections not sorted by (victim, observed)")
	}

	// Detected/Recall consistency with the report.
	det := plan.Detected(rep)
	if det == 0 {
		t.Fatal("no planned campaign was detected")
	}
	if got, want := plan.Recall(rep), float64(det)/float64(len(plan.Campaigns)); got != want {
		t.Fatalf("recall = %v, want %v", got, want)
	}
}

// An honest collection over the same victims yields an empty report —
// and rov=1.0 must collapse to exactly that.
func TestDetectHonestAndFullROVEmpty(t *testing.T) {
	plan := NewPlan(testW, testG, Config{Severity: 1})
	monitors := bgp.SelectMonitors(testW, testG, 30)
	victims := plan.Victims()
	honest := Detect(bgp.CollectPaths(testG, monitors, victims, 2, nil), victims, testW)
	if len(honest.Detections) != 0 {
		t.Fatalf("honest paths produced %d detections", len(honest.Detections))
	}
	gated := NewPlan(testW, testG, Config{Severity: 1, ROVFraction: 1})
	mp := bgp.CollectPaths(testG, monitors, victims, 2, gated.Adversary())
	rep := Detect(mp, victims, testW)
	if !reflect.DeepEqual(honest, rep) {
		t.Fatalf("rov=1.0 report differs from honest: %+v vs %+v", rep, honest)
	}
}
