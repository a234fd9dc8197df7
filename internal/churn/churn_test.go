package churn

import (
	"encoding/json"
	"sort"
	"testing"

	"stateowned/internal/as2org"
	"stateowned/internal/expand"
	"stateowned/internal/hijack"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

func countStateOps(w *world.World) int {
	n := 0
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		if op.Kind.InScope() && w.Graph.ControlOf(op.Entity).Controlled() {
			n++
		}
	}
	return n
}

func TestEvolveChangesOwnership(t *testing.T) {
	w := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	before := countStateOps(w)
	events := Evolve(w, 5, 11, DefaultRates())
	if len(events) == 0 {
		t.Fatal("five years produced no events")
	}
	after := countStateOps(w)
	t.Logf("state operators: %d -> %d across %d events", before, after, len(events))

	kinds := map[EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Year < 1 || e.Year > 5 || e.OperatorID == "" {
			t.Fatalf("malformed event %+v", e)
		}
	}
	if kinds[Privatization] == 0 {
		t.Error("no privatizations in five years")
	}

	// Every privatized operator must have actually lost state control.
	for _, e := range events {
		if e.Kind != Privatization {
			continue
		}
		op := w.Operators[e.OperatorID]
		// It may have been re-nationalized by a later event; verify only
		// if no later nationalization touched it.
		renationalized := false
		for _, e2 := range events {
			if e2.OperatorID == e.OperatorID && e2.Kind == Nationalization && e2.Year > e.Year {
				renationalized = true
			}
		}
		if !renationalized && w.Graph.ControlOf(op.Entity).Controlled() {
			t.Errorf("%s privatized but still controlled", e.OperatorID)
		}
	}
}

func TestEvolveDeterministic(t *testing.T) {
	w1 := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	w2 := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	e1 := Evolve(w1, 3, 5, DefaultRates())
	e2 := Evolve(w2, 3, 5, DefaultRates())
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestEvolveOrderIndependent is the regression test for the canonical
// within-year ordering: evolving two identical worlds — one enumerated
// in natural operator order, one in reversed order — must produce the
// same event log and the same resulting ownership state. Before the
// two-phase rewrite, both the RNG draws and the mutation order followed
// the enumeration order, so generation content silently depended on it.
func TestEvolveOrderIndependent(t *testing.T) {
	w1 := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	w2 := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	for i, j := 0, len(w2.OperatorIDs)-1; i < j; i, j = i+1, j-1 {
		w2.OperatorIDs[i], w2.OperatorIDs[j] = w2.OperatorIDs[j], w2.OperatorIDs[i]
	}

	e1 := Evolve(w1, 5, 11, DefaultRates())
	e2 := Evolve(w2, 5, 11, DefaultRates())
	if len(e1) == 0 {
		t.Fatal("no events to compare")
	}
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ under reversed enumeration: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs under reversed enumeration:\n  %+v\n  %+v", i, e1[i], e2[i])
		}
	}
	for _, id := range w1.OperatorIDs {
		c1 := w1.Graph.ControlOf(w1.Operators[id].Entity)
		c2 := w2.Graph.ControlOf(w2.Operators[id].Entity)
		if c1.Controller != c2.Controller || c1.Share != c2.Share {
			t.Fatalf("operator %s control diverged: %+v vs %+v", id, c1, c2)
		}
	}
}

// TestEvolveEventsCanonicalOrder pins the event log's sort contract:
// ascending (year, kind, operator ID).
func TestEvolveEventsCanonicalOrder(t *testing.T) {
	w := world.Generate(world.Config{Seed: 21, Scale: 0.05})
	events := Evolve(w, 8, 3, DefaultRates())
	if len(events) < 2 {
		t.Skipf("only %d events; nothing to order", len(events))
	}
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		ordered := a.Year < b.Year ||
			(a.Year == b.Year && (a.Kind < b.Kind ||
				(a.Kind == b.Kind && a.OperatorID < b.OperatorID)))
		if !ordered {
			t.Fatalf("events %d and %d out of canonical order:\n  %+v\n  %+v", i-1, i, a, b)
		}
	}
}

func TestZeroRatesNoEvents(t *testing.T) {
	w := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	if events := Evolve(w, 10, 3, Rates{}); len(events) != 0 {
		t.Errorf("zero rates produced %d events", len(events))
	}
}

func TestAuditDetectsAgeing(t *testing.T) {
	w := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	// Build a small "dataset" directly from ground truth: one org per
	// state operator.
	reg := whois.Build(w)
	m := as2org.Infer(reg)
	_ = m
	ds := &expand.Dataset{}
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		ctrl := w.Graph.ControlOf(op.Entity)
		if !op.Kind.InScope() || !ctrl.Controlled() || len(op.ASNs) == 0 {
			continue
		}
		ds.Organizations = append(ds.Organizations, expand.OrgRecord{
			OrgID: op.OrgID, OrgName: op.LegalName, OwnershipCC: ctrl.Controller,
		})
		ds.ASNs = append(ds.ASNs, expand.OrgASNs{OrgID: op.OrgID, ASNs: op.ASNs})
	}

	// Fresh dataset: fully valid.
	fresh := RunAudit(ds, w)
	if len(fresh.StaleOrgs) != 0 {
		t.Fatalf("fresh dataset already stale: %v", fresh.StaleOrgs)
	}
	if fresh.StillValid != len(ds.Organizations) {
		t.Fatalf("fresh valid = %d of %d", fresh.StillValid, len(ds.Organizations))
	}

	// Age the world; the audit must now find work, and far less than a
	// full rebuild.
	events := Evolve(w, 5, 11, DefaultRates())
	aged := RunAudit(ds, w)
	if len(events) > 0 && len(aged.StaleOrgs)+len(aged.MissingCompanies) == 0 {
		t.Error("events occurred but the audit found nothing")
	}
	if aged.MaintenanceFraction > 0.5 {
		t.Errorf("maintenance fraction %.2f: ageing should be incremental", aged.MaintenanceFraction)
	}
	t.Logf("after 5 years: %d stale, %d missing, fraction %.3f",
		len(aged.StaleOrgs), len(aged.MissingCompanies), aged.MaintenanceFraction)
}

// TestAuditAdversarialFlag is the regression test distinguishing
// legitimate M&A churn from hijack-coincident churn. Two stale rows can
// look identical in the ownership audit; only the one whose ASNs appear
// as victims in the generation's detection report may be an adversary's
// artifact, and only that one must carry the adversarial flag.
func TestAuditAdversarialFlag(t *testing.T) {
	w := world.Generate(world.Config{Seed: 7, Scale: 0.05})
	ds := &expand.Dataset{}
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		ctrl := w.Graph.ControlOf(op.Entity)
		if !op.Kind.InScope() || !ctrl.Controlled() || len(op.ASNs) == 0 {
			continue
		}
		ds.Organizations = append(ds.Organizations, expand.OrgRecord{
			OrgID: op.OrgID, OrgName: op.LegalName, OwnershipCC: ctrl.Controller,
		})
		ds.ASNs = append(ds.ASNs, expand.OrgASNs{OrgID: op.OrgID, ASNs: op.ASNs})
	}
	Evolve(w, 5, 11, DefaultRates())
	plain := RunAudit(ds, w)
	if len(plain.StaleOrgs) < 2 {
		t.Skipf("only %d stale orgs; need two to distinguish", len(plain.StaleOrgs))
	}
	for _, row := range plain.StaleOrgs {
		if row.Adversarial {
			t.Fatalf("audit with no detection report flagged %q adversarial", row.OrgName)
		}
	}

	// Pick one stale org and forge a detection report naming one of its
	// ASNs as a hijack victim; every other stale row is plain M&A churn.
	target := plain.StaleOrgs[0].OrgName
	var victim world.ASN
	for i := range ds.Organizations {
		if ds.Organizations[i].OrgName == target {
			victim = ds.ASNs[i].ASNs[0]
		}
	}
	rep := &hijack.Report{Detections: []hijack.Detection{
		{Victim: victim, Observed: victim + 1, Monitors: 3},
	}}

	flagged := RunAuditFlagged(ds, w, rep)
	if len(flagged.StaleOrgs) != len(plain.StaleOrgs) {
		t.Fatalf("flag join changed the stale set: %d vs %d", len(flagged.StaleOrgs), len(plain.StaleOrgs))
	}
	for _, row := range flagged.StaleOrgs {
		if row.OrgName == target && !row.Adversarial {
			t.Errorf("%q has a detected origin change but no adversarial flag", row.OrgName)
		}
		if row.OrgName != target && row.Adversarial {
			t.Errorf("%q is plain M&A churn but was flagged adversarial", row.OrgName)
		}
	}
	// Other audit fields are unaffected by the join.
	if flagged.StillValid != plain.StillValid || flagged.MaintenanceFraction != plain.MaintenanceFraction {
		t.Errorf("flag join changed audit totals: %+v vs %+v", flagged, plain)
	}
}

// TestControlTableMatchesWorldAudit holds the control table's audit to
// the audit it replaced, kept here verbatim as the oracle: an audit
// that reads the world directly (TrueStateOwnedAS, OperatorOfAS,
// ControlOf). The dataset is ground truth with every third
// organization's recorded owner changed and every fifth dropped, so
// valid, stale and missing rows all occur; each seed's world is
// audited after every churn year, with and without a detection report.
func TestControlTableMatchesWorldAudit(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		w := world.Generate(world.Config{Seed: seed, Scale: 0.05})
		ds := &expand.Dataset{}
		n := 0
		for _, id := range w.OperatorIDs {
			op := w.Operators[id]
			ctrl := w.Graph.ControlOf(op.Entity)
			if !op.Kind.InScope() || !ctrl.Controlled() || len(op.ASNs) == 0 {
				continue
			}
			n++
			if n%5 == 0 {
				continue
			}
			cc := ctrl.Controller
			if n%3 == 0 {
				cc = "ZZ"
			}
			ds.Organizations = append(ds.Organizations, expand.OrgRecord{
				OrgID: op.OrgID, OrgName: op.LegalName, OwnershipCC: cc,
			})
			ds.ASNs = append(ds.ASNs, expand.OrgASNs{OrgID: op.OrgID, ASNs: op.ASNs})
		}
		rep := &hijack.Report{Detections: []hijack.Detection{{Victim: ds.ASNs[0].ASNs[0]}, {Victim: ds.ASNs[3].ASNs[0]}}}
		for year := 0; year <= 6; year++ {
			if year > 0 {
				Evolve(w, 1, seed+uint64(year), Rates{Privatization: 0.1, Nationalization: 0.1})
			}
			for _, r := range []*hijack.Report{nil, rep} {
				got, _ := json.Marshal(RunAuditFlagged(ds, w, r))
				want, _ := json.Marshal(worldAudit(ds, w, r))
				if string(got) != string(want) {
					t.Fatalf("seed %d year %d: table audit\n%s\nworld audit\n%s", seed, year, got, want)
				}
			}
		}
	}
}

// worldAudit is the audit as it read the world before the control
// table: the oracle TestControlTableMatchesWorldAudit holds the table
// to.
func worldAudit(ds *expand.Dataset, w *world.World, rep *hijack.Report) Audit {
	victims := map[world.ASN]bool{}
	if rep != nil {
		for _, d := range rep.Detections {
			victims[d.Victim] = true
		}
	}
	var a Audit
	inDataset := map[string]bool{}
	for i := range ds.Organizations {
		org := &ds.Organizations[i]
		valid, adversarial := false, false
		for _, asn := range ds.ASNs[i].ASNs {
			if owner, ok := w.TrueStateOwnedAS(asn); ok && owner == org.OwnershipCC {
				valid = true
			}
			if victims[asn] {
				adversarial = true
			}
			if op, ok := w.OperatorOfAS(asn); ok {
				inDataset[op.ID] = true
			}
		}
		if valid {
			a.StillValid++
		} else {
			a.StaleOrgs = append(a.StaleOrgs, StaleOrg{OrgName: org.OrgName, Adversarial: adversarial})
		}
	}
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		if !op.Kind.InScope() || inDataset[id] {
			continue
		}
		if w.Graph.ControlOf(op.Entity).Controlled() {
			a.MissingCompanies = append(a.MissingCompanies, op.BrandName)
		}
	}
	sort.Slice(a.StaleOrgs, func(i, j int) bool { return a.StaleOrgs[i].OrgName < a.StaleOrgs[j].OrgName })
	sort.Strings(a.MissingCompanies)
	if n := len(ds.Organizations); n > 0 {
		a.MaintenanceFraction = float64(len(a.StaleOrgs)+len(a.MissingCompanies)) / float64(n)
	}
	return a
}
