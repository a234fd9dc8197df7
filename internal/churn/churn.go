// Package churn models what the paper's §9 calls "Changes in ownership
// over time" and proposes as future work: ownership of telecom companies
// is dynamic — privatizations (rare), (re-)nationalizations (the Ucell
// and Vodafone Fiji cases), and new foreign expansions — so a published
// dataset ages and needs periodic maintenance.
//
// Evolve applies seeded yearly ownership events to a world; Audit then
// compares an existing dataset against the evolved ground truth, telling
// the maintainer exactly what the paper predicted: re-validating an aged
// list is far cheaper than rebuilding it, because only a small fraction
// of records changes per year.
package churn

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"stateowned/internal/expand"
	"stateowned/internal/hijack"
	"stateowned/internal/ownership"
	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// EventKind classifies an ownership-change event.
type EventKind uint8

// Event kinds.
const (
	Privatization EventKind = iota
	Nationalization
	NewForeignSubsidiary
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Privatization:
		return "privatization"
	case Nationalization:
		return "nationalization"
	case NewForeignSubsidiary:
		return "new-foreign-subsidiary"
	default:
		return "unknown"
	}
}

// Event is one applied ownership change.
type Event struct {
	Year       int
	Kind       EventKind
	OperatorID string
	Company    string
	Country    string
	Detail     string
}

// Rates are the per-operator, per-year event probabilities. Defaults
// follow the paper's observations: privatizations are "relatively rare";
// nationalizations happen (Ucell 2018, Vodafone Fiji 2014); states keep
// expanding abroad.
type Rates struct {
	Privatization   float64
	Nationalization float64
	NewSubsidiary   float64
}

// DefaultRates mirror the observed decade: roughly one privatization per
// hundred state operators per year, and somewhat rarer nationalizations.
func DefaultRates() Rates {
	return Rates{Privatization: 0.012, Nationalization: 0.006, NewSubsidiary: 0.008}
}

// Evolve applies `years` years of ownership churn to the world, mutating
// its equity graph in place, and returns the event log in canonical
// (year, kind, operator ID) order.
//
// Each year runs in two deterministic phases. Phase one samples every
// in-scope operator against the year's rates using an operator-keyed
// random stream and the ownership state as of the start of the year, so
// neither the draws nor the decisions depend on the order in which
// operators are enumerated. Phase two sorts the proposed events by
// (kind, operator ID) and applies the mutations in that order. The
// evolved graph — and therefore the content of every dataset generation
// built from it — is identical under any permutation of
// world.OperatorIDs, any map-iteration order and any worker count: the
// same canonical-order contract the build scheduler enforces for the
// pipeline itself.
func Evolve(w *world.World, years int, seed uint64, rates Rates) []Event {
	r := rng.New(seed).Sub("churn")
	var events []Event
	for year := 1; year <= years; year++ {
		yr := r.Sub(fmt.Sprintf("year/%d", year))

		// Phase 1: propose events from the start-of-year ownership state.
		var proposals []Event
		for _, id := range w.OperatorIDs {
			op := w.Operators[id]
			if !op.Kind.InScope() {
				continue
			}
			or := yr.Sub("op/" + id)
			ctrl := w.Graph.ControlOf(op.Entity)
			switch {
			case ctrl.Controlled() && or.Bool(rates.Privatization):
				proposals = append(proposals, Event{
					Year: year, Kind: Privatization, OperatorID: id,
					Company: op.BrandName, Country: op.Country,
					Detail: fmt.Sprintf("state of %s divests its holdings", ctrl.Controller),
				})
			case !ctrl.Controlled() && op.Kind == world.KindIncumbent && or.Bool(rates.Nationalization):
				proposals = append(proposals, Event{
					Year: year, Kind: Nationalization, OperatorID: id,
					Company: op.BrandName, Country: op.Country,
					Detail: fmt.Sprintf("government of %s acquires a majority", op.Country),
				})
			case ctrl.Controlled() && ctrl.Controller == op.Country && or.Bool(rates.NewSubsidiary):
				proposals = append(proposals, Event{
					Year: year, Kind: NewForeignSubsidiary, OperatorID: id,
					Company: op.BrandName, Country: op.Country,
					Detail: "announces a new foreign operation (no ASN yet)",
				})
			}
		}

		// Phase 2: apply in canonical (kind, operator ID) order. Proposals
		// whose precondition evaporated under an earlier same-year event
		// (the mutation reports false) are dropped from the log.
		sort.Slice(proposals, func(i, j int) bool {
			if proposals[i].Kind != proposals[j].Kind {
				return proposals[i].Kind < proposals[j].Kind
			}
			return proposals[i].OperatorID < proposals[j].OperatorID
		})
		for _, e := range proposals {
			op := w.Operators[e.OperatorID]
			switch e.Kind {
			case Privatization:
				if !privatize(w, op) {
					continue
				}
			case Nationalization:
				if !nationalize(w, op) {
					continue
				}
			}
			events = append(events, e)
		}
	}
	return events
}

// privatize removes every state-controlled holding in the operator and
// hands the equity to a new private buyer. The company keeps its name —
// the misleading-name hazard §9 warns about now exists in the world.
func privatize(w *world.World, op *world.Operator) bool {
	var removed float64
	for _, h := range w.Graph.Holders(op.Entity) {
		hc := w.Graph.ControlOf(h.Holder)
		if hc.Controlled() {
			removed += w.Graph.RemoveHolding(h.Holder, op.Entity)
		}
	}
	if removed <= 0 {
		return false
	}
	buyer := ownership.EntityID("buyer-" + op.ID)
	if _, ok := w.Graph.Entity(buyer); !ok {
		w.Graph.MustAddEntity(ownership.Entity{
			ID: buyer, Kind: ownership.KindPrivate,
			Name: op.BrandName + " private investors", Country: op.Country,
		})
	}
	w.Graph.MustAddHolding(ownership.Holding{Holder: buyer, Target: op.Entity, Share: removed})
	return true
}

// nationalize moves a majority of the operator's equity to its government.
func nationalize(w *world.World, op *world.Operator) bool {
	// Take over the largest private holder's position.
	for _, h := range w.Graph.Holders(op.Entity) {
		e, _ := w.Graph.Entity(h.Holder)
		if e.Kind != ownership.KindPrivate || h.Share < ownership.MajorityThreshold {
			continue
		}
		share := w.Graph.RemoveHolding(h.Holder, op.Entity)
		gov := ownership.EntityID("gov-" + op.Country)
		if _, ok := w.Graph.Entity(gov); !ok {
			w.Graph.MustAddEntity(ownership.Entity{
				ID: gov, Kind: ownership.KindGovernment,
				Name: "Government of " + op.Country, Country: op.Country,
			})
		}
		w.Graph.MustAddHolding(ownership.Holding{Holder: gov, Target: op.Entity, Share: share})
		return true
	}
	return false
}

// StaleOrg is one audit row: a dataset organization whose recorded
// classification no longer matches ground truth. Adversarial separates
// legitimate churn (privatizations, M&A — the record really changed)
// from hijack-coincident churn: when the generation's detection report
// shows an observed origin change against one of the organization's
// ASNs, the "ownership change" the audit sees may be an adversary's
// artifact, not a registry event, and a maintainer should verify the
// routing incident before editing the record.
type StaleOrg struct {
	OrgName string `json:"org_name"`
	// Adversarial is true when the ownership change joins against a
	// detected origin change: some ASN registered to this organization
	// appears as a victim in the generation's hijack report.
	Adversarial bool `json:"adversarial,omitempty"`
}

// Audit compares an existing dataset against the (possibly evolved)
// world, producing the maintenance picture §9 anticipates. The JSON
// form is the wire format of the serving layer's /v1/diff endpoint, so
// an offline RunAudit marshals byte-for-byte identically to the served
// generation diff.
type Audit struct {
	// StaleOrgs are dataset organizations that are no longer majority
	// state-owned (privatized since publication), each row annotated
	// with whether the change coincides with a detected hijack.
	StaleOrgs []StaleOrg `json:"stale_orgs"`
	// MissingCompanies are operators that became state-owned after the
	// dataset was built.
	MissingCompanies []string `json:"missing_companies"`
	// StillValid counts organizations whose classification holds.
	StillValid int `json:"still_valid"`
	// MaintenanceFraction is the share of records needing any edit —
	// the paper's argument that upkeep is "significantly less taxing"
	// than regeneration.
	MaintenanceFraction float64 `json:"maintenance_fraction"`
}

// RunAudit audits a dataset against the world's current ground truth.
// Equivalent to RunAuditFlagged with no detection report: every stale
// row is presumed legitimate churn.
func RunAudit(ds *expand.Dataset, w *world.World) Audit {
	return RunAuditFlagged(ds, w, nil)
}

// RunAuditFlagged audits a dataset against the world's current ground
// truth and joins each stale row against the generation's hijack
// detection report (nil or empty for honest generations — then it is
// exactly RunAudit). A stale organization whose ASNs include a detected
// victim is flagged Adversarial: the apparent ownership change
// coincides with an observed origin change, so it may be routing
// adversary noise rather than a registry event. It is the world's
// ControlTable audited: the one audit implementation.
func RunAuditFlagged(ds *expand.Dataset, w *world.World, rep *hijack.Report) Audit {
	return NewControlTable(w).Audit(ds, rep)
}

// ControlTable is the part of a world's ground truth an audit reads:
// every in-scope, state-controlled operator's brand and controlling
// state, and which operator each of their ASNs belongs to. A retained
// generation keeps its table, not its world, to answer audits against
// it; the table is immutable and shares its strings with the world's
// operators.
type ControlTable struct {
	ops  []controlled // in world.OperatorIDs order
	asns []asnOwner   // the operators' ASNs, ascending
}

// controlled is one in-scope operator some state controls.
type controlled struct {
	brand, controller string
}

// asnOwner names the ControlTable row an ASN belongs to.
type asnOwner struct {
	asn world.ASN
	op  int32
}

// NewControlTable resolves the world's current control of every
// in-scope operator into a table.
func NewControlTable(w *world.World) *ControlTable {
	t := &ControlTable{}
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		if !op.Kind.InScope() {
			continue
		}
		c := w.Graph.ControlOf(op.Entity)
		if !c.Controlled() {
			continue
		}
		for _, a := range op.ASNs {
			t.asns = append(t.asns, asnOwner{asn: a, op: int32(len(t.ops))})
		}
		t.ops = append(t.ops, controlled{brand: op.BrandName, controller: c.Controller})
	}
	slices.SortFunc(t.asns, func(a, b asnOwner) int { return cmp.Compare(a.asn, b.asn) })
	return t
}

// owner returns the row of the operator holding ASN a, if a state
// controls it.
func (t *ControlTable) owner(a world.ASN) (int32, bool) {
	i, ok := slices.BinarySearchFunc(t.asns, a, func(e asnOwner, a world.ASN) int { return cmp.Compare(e.asn, a) })
	if !ok {
		return 0, false
	}
	return t.asns[i].op, true
}

// Audit audits a dataset against the table's ground truth, joining each
// stale row against the detection report rep (nil or empty for honest
// generations). An organization stays valid while one of its ASNs
// belongs to an operator its recorded owner state controls; an operator
// none of the dataset's ASNs reaches is a missing company.
func (t *ControlTable) Audit(ds *expand.Dataset, rep *hijack.Report) Audit {
	victims := map[world.ASN]bool{}
	if rep != nil {
		for _, d := range rep.Detections {
			victims[d.Victim] = true
		}
	}
	var a Audit
	inDataset := make([]bool, len(t.ops))
	for i := range ds.Organizations {
		org := &ds.Organizations[i]
		valid, adversarial := false, false
		for _, asn := range ds.ASNs[i].ASNs {
			if k, ok := t.owner(asn); ok {
				if t.ops[k].controller == org.OwnershipCC {
					valid = true
				}
				inDataset[k] = true
			}
			if victims[asn] {
				adversarial = true
			}
		}
		if valid {
			a.StillValid++
		} else {
			a.StaleOrgs = append(a.StaleOrgs, StaleOrg{OrgName: org.OrgName, Adversarial: adversarial})
		}
	}
	for k, op := range t.ops {
		if !inDataset[k] {
			a.MissingCompanies = append(a.MissingCompanies, op.brand)
		}
	}
	sort.Slice(a.StaleOrgs, func(i, j int) bool { return a.StaleOrgs[i].OrgName < a.StaleOrgs[j].OrgName })
	sort.Strings(a.MissingCompanies)
	if n := len(ds.Organizations); n > 0 {
		a.MaintenanceFraction = float64(len(a.StaleOrgs)+len(a.MissingCompanies)) / float64(n)
	}
	return a
}
