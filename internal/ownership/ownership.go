// Package ownership models corporate equity structures and computes state
// control exactly as the paper defines it (§3): a firm is state-owned when
// a (federal) government owns at least 50% of its equity, where ownership
// may be direct, indirect through chains of state-controlled companies, or
// aggregated across multiple state-controlled bodies such as sovereign
// wealth, hedge and pension funds (the Telekom Malaysia case).
//
// The equity graph lives on dense int32 entity handles, assigned in
// insertion order: entities, holdings and the resolved control memo are
// handle-indexed slices, and an EntityID is hashed only where it crosses
// the API. The control fixpoint sweeps handles in sorted-ID order, kept
// lazily across mutations, without hashing a string.
//
// The package also classifies foreign subsidiaries (§5.2): separate legal
// entities registered in one country but majority-held by another state's
// controlled entities.
package ownership

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
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
// control memo and sorted order are filled under a mutex, so parallel
// build nodes may all query a frozen graph — but mutation must not
// overlap with reads.
type Graph struct {
	// ents holds the entities by handle, in insertion order, and index
	// maps an ID to its handle. After Clone both graphs share them
	// (shared) until either one's next AddEntity copies them.
	ents   []Entity
	index  map[EntityID]int32
	shared bool

	// in[h] lists the holdings into h in the order they were added,
	// out[h] the holdings h has; each edge names its other end by
	// handle.
	in, out [][]edge

	// resolveMu serializes the fill of the analysis state, so concurrent
	// readers of a frozen graph never race on it. order lists the first
	// len(order) handles in sorted-ID order (sortedOrder merges in any
	// added since); control is the resolved memo by handle. Both are
	// replaced, never updated in place, so clones may share them.
	resolveMu sync.Mutex
	order     []int32
	control   []Control
	dirty     bool
}

// edge is one holding seen from one end: the handle of the entity at
// the other end and the share of the target's equity.
type edge struct {
	other int32
	share float64
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
	// It is nil where no state holds any of the entity's equity: read it
	// like an empty map, and never write it.
	StateShares map[string]float64
}

// Controlled reports whether any state controls the entity.
func (c Control) Controlled() bool { return c.Controller != "" }

// NewGraph returns an empty equity graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[EntityID]int32), dirty: true}
}

// Clone returns an independent copy of the graph: mutating either one
// never shows in the other. The two share the entity array, the ID
// index and the sorted order until either one's next AddEntity copies
// the entities and the index (copy on write); a merged order is always
// a fresh slice. The holding lists are copied, because RemoveHolding
// rewrites a list in place. The resolved control memo is shared too —
// resolve replaces the memo rather than updating it — so a clone of a
// resolved graph answers ControlOf without a fixpoint until its first
// mutation. Clone allocates the same few objects whatever the graph's
// size. Safe to call while other goroutines read g.
func (g *Graph) Clone() *Graph {
	g.resolveMu.Lock()
	g.shared = true
	c := &Graph{
		ents:    g.ents,
		index:   g.index,
		shared:  true,
		order:   g.order,
		control: g.control,
		dirty:   g.dirty,
	}
	g.resolveMu.Unlock()
	c.in, c.out = cloneEdges(g.in), cloneEdges(g.out)
	return c
}

// cloneEdges copies every list into one backing array. Each list's
// capacity ends at its length, so an append on the copy moves that
// list out instead of overwriting its neighbour.
func cloneEdges(lists [][]edge) [][]edge {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	all := make([]edge, 0, n)
	out := make([][]edge, len(lists), grown(len(lists)))
	for h, l := range lists {
		if len(l) > 0 {
			start := len(all)
			all = append(all, l...)
			out[h] = all[start:len(all):len(all)]
		}
	}
	return out
}

// grown is the capacity a copied per-entity slice of length n gets: room
// for the few entities a churn step adds, so the step's first AddEntity
// does not double the copy.
func grown(n int) int { return n + n/64 + 16 }

// AddEntity registers an entity. It returns an error on duplicate IDs or
// empty countries for government units.
func (g *Graph) AddEntity(e Entity) error {
	if e.ID == "" {
		return fmt.Errorf("ownership: empty entity ID")
	}
	if _, dup := g.index[e.ID]; dup {
		return fmt.Errorf("ownership: duplicate entity %q", e.ID)
	}
	if e.Kind == KindGovernment && e.Country == "" {
		return fmt.Errorf("ownership: government entity %q without country", e.ID)
	}
	if g.shared {
		g.ents = append(make([]Entity, 0, grown(len(g.ents))), g.ents...)
		g.index = maps.Clone(g.index)
		g.shared = false
	}
	g.index[e.ID] = int32(len(g.ents))
	g.ents = append(g.ents, e)
	g.in = append(g.in, nil)
	g.out = append(g.out, nil)
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
	h, ok := g.index[id]
	if !ok {
		return Entity{}, false
	}
	return g.ents[h], true
}

// NumEntities reports how many entities the graph holds.
func (g *Graph) NumEntities() int { return len(g.ents) }

// Entities returns all entity IDs in sorted order.
func (g *Graph) Entities() []EntityID {
	ids := make([]EntityID, len(g.ents))
	for h, e := range g.ents {
		ids[h] = e.ID
	}
	slices.Sort(ids)
	return ids
}

// AddHolding records an equity position. Shares of a target may not exceed
// 1.0 in total (with a small epsilon for rounding).
func (g *Graph) AddHolding(h Holding) error {
	if h.Share <= 0 || h.Share > 1 {
		return fmt.Errorf("ownership: share %f out of (0,1]", h.Share)
	}
	holder, ok := g.index[h.Holder]
	if !ok {
		return fmt.Errorf("ownership: unknown holder %q", h.Holder)
	}
	target, ok := g.index[h.Target]
	if !ok {
		return fmt.Errorf("ownership: unknown target %q", h.Target)
	}
	if holder == target {
		return fmt.Errorf("ownership: self-holding of %q", h.Target)
	}
	total := h.Share
	for _, prev := range g.in[target] {
		total += prev.share
	}
	if total > 1.0+1e-9 {
		return fmt.Errorf("ownership: holdings of %q exceed 100%% (%.4f)", h.Target, total)
	}
	g.in[target] = append(g.in[target], edge{holder, h.Share})
	g.out[holder] = append(g.out[holder], edge{target, h.Share})
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
// removed share (0 if none existed). The holdings that remain keep their
// relative order, which the control fixpoint's sums depend on. Used by
// the ownership-churn model (privatizations and nationalizations, §9 of
// the paper).
func (g *Graph) RemoveHolding(holder, target EntityID) float64 {
	hh, ok := g.index[holder]
	if !ok {
		return 0
	}
	th, ok := g.index[target]
	if !ok {
		return 0
	}
	removed := 0.0
	in := g.in[th][:0]
	for _, e := range g.in[th] {
		if e.other == hh {
			removed += e.share
			continue
		}
		in = append(in, e)
	}
	g.in[th] = in
	out := g.out[hh][:0]
	for _, e := range g.out[hh] {
		if e.other != th {
			out = append(out, e)
		}
	}
	g.out[hh] = out
	if removed > 0 {
		g.dirty = true
	}
	return removed
}

// Holders returns the holdings into the target, largest share first.
func (g *Graph) Holders(target EntityID) []Holding {
	th, ok := g.index[target]
	if !ok || len(g.in[th]) == 0 {
		return nil
	}
	hs := make([]Holding, len(g.in[th]))
	for k, e := range g.in[th] {
		hs[k] = Holding{Holder: g.ents[e.other].ID, Target: target, Share: e.share}
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Share != hs[j].Share {
			return hs[i].Share > hs[j].Share
		}
		return hs[i].Holder < hs[j].Holder
	})
	return hs
}

// sortedOrder returns every handle in sorted-ID order, first bringing
// g.order up to date: the first call takes the order from one sort of
// every ID (Entities); later calls insert the handles added since, by
// binary search, into a fresh slice, since clones may share the old
// one. Churn adds a few entities per step, so a fixpoint after churn
// pays one copy of the order, never a sort. The caller holds
// g.resolveMu.
func (g *Graph) sortedOrder() []int32 {
	if len(g.order) == len(g.ents) {
		return g.order
	}
	if len(g.order) == 0 {
		order := make([]int32, len(g.ents))
		for k, id := range g.Entities() {
			order[k] = g.index[id]
		}
		g.order = order
		return order
	}
	added := make([]int32, 0, len(g.ents)-len(g.order))
	for h := len(g.order); h < len(g.ents); h++ {
		added = append(added, int32(h))
	}
	byID := func(a, b int32) int { return strings.Compare(string(g.ents[a].ID), string(g.ents[b].ID)) }
	slices.SortFunc(added, byID)
	order := make([]int32, 0, len(g.ents))
	rest := g.order
	for _, h := range added {
		k, _ := slices.BinarySearchFunc(rest, h, byID)
		order = append(append(order, rest[:k]...), h)
		rest = rest[k:]
	}
	g.order = append(order, rest...)
	return g.order
}

// countryShare is one country's running state-held share of an entity.
type countryShare struct {
	country uint16
	share   float64
}

// aggregate appends to agg, per country, the shares of h's holders that
// the country controls according to ctl, summed in h's inbound order,
// and returns it sorted by country number.
func (g *Graph) aggregate(agg []countryShare, h int32, ctl []uint16) []countryShare {
	for _, e := range g.in[h] {
		c := ctl[e.other]
		if c == 0 {
			continue
		}
		k := 0
		for k < len(agg) && agg[k].country != c {
			k++
		}
		if k == len(agg) {
			agg = append(agg, countryShare{country: c})
		}
		agg[k].share += e.share
	}
	slices.SortFunc(agg, func(a, b countryShare) int { return cmp.Compare(a.country, b.country) })
	return agg
}

// resolve returns the resolved control memo, recomputing the fixpoint
// first if the graph changed since the last one.
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
//
// This is the rule the package computed over string-keyed maps, kept
// exactly: the same Gauss-Seidel sweep over the non-government entities
// in sorted-ID order, each entity's per-country sums accumulated in its
// inbound order, ties broken by country code (the first country, in code
// order, whose sum beats the running best by more than 1e-12), the same
// 1e-12 below MajorityThreshold, and the same cap of len+2 sweeps. Only
// the bookkeeping is dense: a controller is a country number, the
// government units' countries numbered in code order, so comparing
// numbers compares codes. Two steps differ in form, not in result. The
// sweeps continue while a controller changes, where the maps were also
// compared: a sweep that changes no controller recomputes every sum from
// controllers that did not change during it, so the next sweep would
// change nothing either. And the StateShares maps are built once, at the
// end, from the final controllers, which are the ones the last sweep
// summed; only if the cap cuts the sweeps off do they come from the last
// sweep itself.
func (g *Graph) resolve() []Control {
	g.resolveMu.Lock()
	defer g.resolveMu.Unlock()
	if !g.dirty && g.control != nil {
		return g.control
	}
	order := g.sortedOrder()
	n := len(g.ents)
	var countries []string
	for _, e := range g.ents {
		if e.Kind == KindGovernment {
			countries = append(countries, e.Country)
		}
	}
	slices.Sort(countries)
	countries = slices.Compact(countries)
	ctl := make([]uint16, n) // controller by handle: 1 + its index in countries, 0 for none
	control := make([]Control, n)
	for h, e := range g.ents {
		if e.Kind == KindGovernment {
			k, _ := slices.BinarySearch(countries, e.Country)
			ctl[h] = uint16(k + 1)
			control[h] = Control{Controller: e.Country, Share: 1, StateShares: map[string]float64{e.Country: 1}}
		}
	}
	shares := func(agg []countryShare) map[string]float64 {
		if len(agg) == 0 {
			return nil
		}
		m := make(map[string]float64, len(agg))
		for _, a := range agg {
			m[countries[a.country-1]] = a.share
		}
		return m
	}
	var agg []countryShare
	last := n + 1
	for iter := 0; iter <= last; iter++ {
		changed := false
		for _, h := range order {
			if g.ents[h].Kind == KindGovernment {
				continue
			}
			agg = g.aggregate(agg[:0], h, ctl)
			best, bestShare := uint16(0), 0.0
			for _, a := range agg {
				if a.share > bestShare+1e-12 {
					best, bestShare = a.country, a.share
				}
			}
			next := Control{}
			if bestShare >= MajorityThreshold-1e-12 {
				next.Controller, next.Share = countries[best-1], bestShare
			} else {
				best = 0
			}
			if ctl[h] != best {
				changed = true
			}
			ctl[h] = best
			if iter == last {
				next.StateShares = shares(agg)
			}
			control[h] = next
		}
		if !changed {
			for _, h := range order {
				if g.ents[h].Kind != KindGovernment {
					agg = g.aggregate(agg[:0], h, ctl)
					control[h].StateShares = shares(agg)
				}
			}
			break
		}
	}
	g.control = control
	g.dirty = false
	return control
}

// ControlOf returns the resolved control status of the entity. Unknown
// entities report an uncontrolled zero value. On a resolved graph it
// allocates nothing: StateShares is the memo's map, nil where no state
// holds a share (read it, never write it).
func (g *Graph) ControlOf(id EntityID) Control {
	control := g.resolve()
	h, ok := g.index[id]
	if !ok {
		return Control{}
	}
	return control[h]
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
	h, ok := g.index[id]
	if !ok {
		return "", false
	}
	c := g.resolve()[h]
	if c.Controlled() && c.Controller != g.ents[h].Country {
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
		if he, _ := g.Entity(h.Holder); he.Kind == KindGovernment {
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

// WriteDOT renders the ownership neighborhood of an entity as a GraphViz
// digraph: every holder chain into the entity (recursively), with
// state-controlled entities highlighted. Useful for documenting how a
// Telekom-Malaysia-style fund aggregation or an Ooredoo-style subsidiary
// chain confers control.
func (g *Graph) WriteDOT(w io.Writer, root EntityID) error {
	control := g.resolve()
	var b strings.Builder
	b.WriteString("digraph ownership {\n  rankdir=BT;\n  node [shape=box, fontname=\"sans-serif\"];\n")
	visited := map[EntityID]bool{}
	var visit func(id EntityID)
	visit = func(id EntityID) {
		if visited[id] {
			return
		}
		visited[id] = true
		h, ok := g.index[id]
		if !ok {
			return
		}
		e, ctrl := g.ents[h], control[h]
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
