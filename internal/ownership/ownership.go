// Package ownership models corporate equity structures and computes state
// control exactly as the paper defines it (§3): a firm is state-owned when
// a (federal) government owns at least 50% of its equity, where ownership
// may be direct, indirect through chains of state-controlled companies, or
// aggregated across multiple state-controlled bodies such as sovereign
// wealth, hedge and pension funds (the Telekom Malaysia case).
//
// The package also classifies foreign subsidiaries (§5.2): separate legal
// entities registered in one country but majority-held by another state's
// controlled entities.
package ownership

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// EntityID uniquely identifies an entity in the graph.
type EntityID string

// Kind distinguishes the entity classes that matter for control analysis.
type Kind uint8

// Entity kinds. Government units confer control of their own state by
// definition; funds and companies confer control transitively; private
// holders never confer state control.
const (
	KindGovernment Kind = iota // a government unit (ministry, treasury, federal agency)
	KindFund                   // state or private investment vehicle (wealth/pension/hedge fund)
	KindCompany                // an operating or holding company
	KindPrivate                // private shareholders, free float, individuals
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindGovernment:
		return "government"
	case KindFund:
		return "fund"
	case KindCompany:
		return "company"
	case KindPrivate:
		return "private"
	default:
		return "unknown"
	}
}

// Entity is a node in the equity graph.
type Entity struct {
	ID      EntityID
	Kind    Kind
	Name    string
	Country string // ISO alpha-2 registration country
}

// Holding is one equity position: Holder owns Share of Target's equity.
type Holding struct {
	Holder EntityID
	Target EntityID
	Share  float64 // fraction in (0, 1]
}

// MajorityThreshold is the IMF Fiscal Monitor criterion the paper adopts:
// state-owned means the government owns at least 50% of equity.
const MajorityThreshold = 0.50

// Graph is an equity graph. It is append-only: entities and holdings are
// added during world generation (single-goroutine) and then analyzed.
// The analysis entry points are safe for concurrent readers — the lazy
// control memo is filled under a mutex, so parallel build nodes may all
// query a frozen graph — but mutation must not overlap with reads.
type Graph struct {
	entities map[EntityID]*Entity
	inbound  map[EntityID][]Holding // holdings by target
	outbound map[EntityID][]Holding // holdings by holder

	// analysis caches, invalidated on mutation; resolveMu serializes the
	// fill so concurrent readers of a frozen graph never race on it.
	resolveMu sync.Mutex
	control   map[EntityID]Control
	dirty     bool
}

// Control describes the resolved state-control status of an entity.
type Control struct {
	// Controller is the ISO country code of the controlling state, empty
	// if no state controls the entity.
	Controller string
	// Share is the aggregated equity share held (directly or through
	// controlled entities) by the controlling state.
	Share float64
	// StateShares maps every country with nonzero aggregated state-held
	// equity to its share; used for minority and joint-venture analysis.
	StateShares map[string]float64
}

// Controlled reports whether any state controls the entity.
func (c Control) Controlled() bool { return c.Controller != "" }

// NewGraph returns an empty equity graph.
func NewGraph() *Graph {
	return &Graph{
		entities: make(map[EntityID]*Entity),
		inbound:  make(map[EntityID][]Holding),
		outbound: make(map[EntityID][]Holding),
		dirty:    true,
	}
}

// Clone returns an independent copy of the graph: mutating either one
// never shows in the other. Entity records are immutable once added, so
// the copy shares them; the holding lists are copied, because
// RemoveHolding rewrites a list's backing array in place. The resolved
// control memo is shared too — resolve replaces the memo rather than
// updating it — so a clone of a resolved graph answers ControlOf without
// a fixpoint until its first mutation. Safe to call while other
// goroutines read g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		entities: make(map[EntityID]*Entity, len(g.entities)),
		inbound:  cloneHoldings(g.inbound),
		outbound: cloneHoldings(g.outbound),
	}
	for id, e := range g.entities {
		c.entities[id] = e
	}
	g.resolveMu.Lock()
	c.control, c.dirty = g.control, g.dirty
	g.resolveMu.Unlock()
	return c
}

// cloneHoldings copies every holding list into one backing array. Each
// list's capacity ends at its length, so an append on the copy moves
// that list out instead of overwriting its neighbour.
func cloneHoldings(m map[EntityID][]Holding) map[EntityID][]Holding {
	n := 0
	for _, hs := range m {
		n += len(hs)
	}
	all := make([]Holding, 0, n)
	out := make(map[EntityID][]Holding, len(m))
	for id, hs := range m {
		start := len(all)
		all = append(all, hs...)
		out[id] = all[start:len(all):len(all)]
	}
	return out
}

// AddEntity registers an entity. It returns an error on duplicate IDs or
// empty countries for government units.
func (g *Graph) AddEntity(e Entity) error {
	if e.ID == "" {
		return fmt.Errorf("ownership: empty entity ID")
	}
	if _, dup := g.entities[e.ID]; dup {
		return fmt.Errorf("ownership: duplicate entity %q", e.ID)
	}
	if e.Kind == KindGovernment && e.Country == "" {
		return fmt.Errorf("ownership: government entity %q without country", e.ID)
	}
	cp := e
	g.entities[e.ID] = &cp
	g.dirty = true
	return nil
}

// MustAddEntity is AddEntity but panics on error; for generator code whose
// inputs are programmatic.
func (g *Graph) MustAddEntity(e Entity) {
	if err := g.AddEntity(e); err != nil {
		panic(err)
	}
}

// Entity looks up an entity by ID.
func (g *Graph) Entity(id EntityID) (Entity, bool) {
	e, ok := g.entities[id]
	if !ok {
		return Entity{}, false
	}
	return *e, true
}

// NumEntities reports how many entities the graph holds.
func (g *Graph) NumEntities() int { return len(g.entities) }

// Entities returns all entity IDs in sorted order.
func (g *Graph) Entities() []EntityID {
	ids := make([]EntityID, 0, len(g.entities))
	for id := range g.entities {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AddHolding records an equity position. Shares of a target may not exceed
// 1.0 in total (with a small epsilon for rounding).
func (g *Graph) AddHolding(h Holding) error {
	if h.Share <= 0 || h.Share > 1 {
		return fmt.Errorf("ownership: share %f out of (0,1]", h.Share)
	}
	if _, ok := g.entities[h.Holder]; !ok {
		return fmt.Errorf("ownership: unknown holder %q", h.Holder)
	}
	if _, ok := g.entities[h.Target]; !ok {
		return fmt.Errorf("ownership: unknown target %q", h.Target)
	}
	if h.Holder == h.Target {
		return fmt.Errorf("ownership: self-holding of %q", h.Target)
	}
	total := h.Share
	for _, prev := range g.inbound[h.Target] {
		total += prev.Share
	}
	if total > 1.0+1e-9 {
		return fmt.Errorf("ownership: holdings of %q exceed 100%% (%.4f)", h.Target, total)
	}
	g.inbound[h.Target] = append(g.inbound[h.Target], h)
	g.outbound[h.Holder] = append(g.outbound[h.Holder], h)
	g.dirty = true
	return nil
}

// MustAddHolding is AddHolding but panics on error.
func (g *Graph) MustAddHolding(h Holding) {
	if err := g.AddHolding(h); err != nil {
		panic(err)
	}
}

// RemoveHolding deletes the position holder has in target, returning the
// removed share (0 if none existed). Used by the ownership-churn model
// (privatizations and nationalizations, §9 of the paper).
func (g *Graph) RemoveHolding(holder, target EntityID) float64 {
	removed := 0.0
	in := g.inbound[target][:0]
	for _, h := range g.inbound[target] {
		if h.Holder == holder {
			removed += h.Share
			continue
		}
		in = append(in, h)
	}
	g.inbound[target] = in
	out := g.outbound[holder][:0]
	for _, h := range g.outbound[holder] {
		if h.Target == target {
			continue
		}
		out = append(out, h)
	}
	g.outbound[holder] = out
	if removed > 0 {
		g.dirty = true
	}
	return removed
}

// Holders returns the holdings into the target, largest share first.
func (g *Graph) Holders(target EntityID) []Holding {
	hs := append([]Holding(nil), g.inbound[target]...)
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Share != hs[j].Share {
			return hs[i].Share > hs[j].Share
		}
		return hs[i].Holder < hs[j].Holder
	})
	return hs
}

// HoldingsOf returns the positions the holder owns, largest share first.
func (g *Graph) HoldingsOf(holder EntityID) []Holding {
	hs := append([]Holding(nil), g.outbound[holder]...)
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Share != hs[j].Share {
			return hs[i].Share > hs[j].Share
		}
		return hs[i].Target < hs[j].Target
	})
	return hs
}

// resolve recomputes the control fixpoint.
//
// Semantics: government entities are controlled by their own country. For
// any other entity E and country X, the state-held share is the sum of
// shares of E's holders that are either X's government units or entities
// already controlled by X. E is controlled by the country whose aggregated
// share is maximal and at least MajorityThreshold (lexicographic tie-break
// for the pathological 50/50 case).
//
// The per-country aggregates are monotone non-decreasing across
// iterations (control is only ever granted), so the loop terminates; the
// iteration cap is a defensive bound, not a correctness requirement.
func (g *Graph) resolve() {
	g.resolveMu.Lock()
	defer g.resolveMu.Unlock()
	if !g.dirty && g.control != nil {
		return
	}
	control := make(map[EntityID]Control, len(g.entities))
	for id, e := range g.entities {
		if e.Kind == KindGovernment {
			control[id] = Control{
				Controller:  e.Country,
				Share:       1,
				StateShares: map[string]float64{e.Country: 1},
			}
		}
	}
	ids := g.Entities()
	for iter := 0; iter <= len(g.entities)+1; iter++ {
		changed := false
		for _, id := range ids {
			e := g.entities[id]
			if e.Kind == KindGovernment {
				continue
			}
			// Most entities have no state-controlled holder; they keep a
			// nil share map (ControlOf hands callers an empty one), so a
			// resolved memo — which every retained generation's graph
			// holds — carries no empty map per entity.
			var agg map[string]float64
			for _, h := range g.inbound[id] {
				hc, ok := control[h.Holder]
				if !ok || !hc.Controlled() {
					continue
				}
				if agg == nil {
					agg = make(map[string]float64)
				}
				agg[hc.Controller] += h.Share
			}
			best, bestShare := "", 0.0
			countries := make([]string, 0, len(agg))
			for c := range agg {
				countries = append(countries, c)
			}
			sort.Strings(countries)
			for _, c := range countries {
				s := agg[c]
				if s > bestShare+1e-12 {
					best, bestShare = c, s
				}
			}
			next := Control{StateShares: agg}
			if bestShare >= MajorityThreshold-1e-12 {
				next.Controller = best
				next.Share = bestShare
			}
			prev := control[id]
			if prev.Controller != next.Controller || !sharesEqual(prev.StateShares, next.StateShares) {
				control[id] = next
				changed = true
			} else {
				control[id] = next // refresh share map regardless
			}
		}
		if !changed {
			break
		}
	}
	g.control = control
	g.dirty = false
}

func sharesEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

// ControlOf returns the resolved control status of the entity. Unknown
// entities report an uncontrolled zero value.
func (g *Graph) ControlOf(id EntityID) Control {
	g.resolve()
	c, ok := g.control[id]
	if !ok {
		return Control{StateShares: map[string]float64{}}
	}
	if c.StateShares == nil {
		c.StateShares = map[string]float64{}
	}
	return c
}

// StateShare returns the aggregated share of the entity's equity held by
// the given state (directly or through controlled entities).
func (g *Graph) StateShare(id EntityID, country string) float64 {
	return g.ControlOf(id).StateShares[country]
}

// IsForeignSubsidiary reports whether the entity is state-controlled by a
// country different from its registration country, returning the
// controlling country when so.
func (g *Graph) IsForeignSubsidiary(id EntityID) (string, bool) {
	e, ok := g.entities[id]
	if !ok {
		return "", false
	}
	c := g.ControlOf(id)
	if c.Controlled() && c.Controller != e.Country {
		return c.Controller, true
	}
	return "", false
}

// MinorityState returns the largest state-held share below the majority
// threshold, with its country, if any state holds a nonzero stake in an
// entity no state controls.
func (g *Graph) MinorityState(id EntityID) (string, float64, bool) {
	c := g.ControlOf(id)
	if c.Controlled() {
		return "", 0, false
	}
	best, bestShare := "", 0.0
	countries := make([]string, 0, len(c.StateShares))
	for cc := range c.StateShares {
		countries = append(countries, cc)
	}
	sort.Strings(countries)
	for _, cc := range countries {
		if s := c.StateShares[cc]; s > bestShare {
			best, bestShare = cc, s
		}
	}
	if bestShare <= 0 {
		return "", 0, false
	}
	return best, bestShare, true
}

// ControllingParent returns the entity's dominant state-controlled
// corporate holder (the paper's parent_org for subsidiaries): among the
// holders controlled by the entity's controlling state, the one with the
// largest share; government units qualify only if no corporate holder
// does.
func (g *Graph) ControllingParent(id EntityID) (EntityID, bool) {
	c := g.ControlOf(id)
	if !c.Controlled() {
		return "", false
	}
	var bestCorp, bestGov EntityID
	var bestCorpShare, bestGovShare float64
	for _, h := range g.Holders(id) {
		hc := g.ControlOf(h.Holder)
		if hc.Controller != c.Controller {
			continue
		}
		he := g.entities[h.Holder]
		if he.Kind == KindGovernment {
			if h.Share > bestGovShare {
				bestGov, bestGovShare = h.Holder, h.Share
			}
			continue
		}
		if h.Share > bestCorpShare {
			bestCorp, bestCorpShare = h.Holder, h.Share
		}
	}
	if bestCorp != "" {
		return bestCorp, true
	}
	if bestGov != "" {
		return bestGov, true
	}
	return "", false
}

// JointVenture reports whether two or more states hold at least the given
// floor of the entity's equity each (e.g., PTCL: Pakistan + UAE). Returns
// the participating countries sorted by descending share.
func (g *Graph) JointVenture(id EntityID, floor float64) ([]string, bool) {
	c := g.ControlOf(id)
	type cs struct {
		country string
		share   float64
	}
	var parts []cs
	for country, share := range c.StateShares {
		if share >= floor {
			parts = append(parts, cs{country, share})
		}
	}
	if len(parts) < 2 {
		return nil, false
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].share != parts[j].share {
			return parts[i].share > parts[j].share
		}
		return parts[i].country < parts[j].country
	})
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = p.country
	}
	return out, true
}

// WriteDOT renders the ownership neighborhood of an entity as a GraphViz
// digraph: every holder chain into the entity (recursively), with
// state-controlled entities highlighted. Useful for documenting how a
// Telekom-Malaysia-style fund aggregation or an Ooredoo-style subsidiary
// chain confers control.
func (g *Graph) WriteDOT(w io.Writer, root EntityID) error {
	g.resolve()
	var b strings.Builder
	b.WriteString("digraph ownership {\n  rankdir=BT;\n  node [shape=box, fontname=\"sans-serif\"];\n")
	visited := map[EntityID]bool{}
	var visit func(id EntityID)
	visit = func(id EntityID) {
		if visited[id] {
			return
		}
		visited[id] = true
		e, ok := g.entities[id]
		if !ok {
			return
		}
		ctrl := g.control[id]
		style := ""
		switch {
		case e.Kind == KindGovernment:
			style = ", style=filled, fillcolor=\"#c6dbef\""
		case ctrl.Controlled():
			style = ", style=filled, fillcolor=\"#e7f0fa\""
		}
		fmt.Fprintf(&b, "  %q [label=\"%s\\n(%s, %s)\"%s];\n", id, e.Name, e.Kind, e.Country, style)
		for _, h := range g.Holders(id) {
			fmt.Fprintf(&b, "  %q -> %q [label=\"%.1f%%\"];\n", h.Holder, id, h.Share*100)
			visit(h.Holder)
		}
	}
	visit(root)
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Descendants returns every entity controlled (transitively) by the given
// country, sorted by ID. Useful for subsidiary discovery in stage 2.
func (g *Graph) Descendants(country string) []EntityID {
	g.resolve()
	var out []EntityID
	for id, c := range g.control {
		if c.Controller == country && g.entities[id].Kind != KindGovernment {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
