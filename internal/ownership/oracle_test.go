package ownership

import (
	"slices"
	"sort"
	"sync"
)

// mapGraph is an equity graph the way the control fixpoint read it
// before entities had handles: entity records by ID, and each target's
// holdings in the order they were added.
type mapGraph struct {
	entities  map[EntityID]*Entity
	inbound   map[EntityID][]Holding
	resolveMu sync.Mutex
	control   map[EntityID]Control
	dirty     bool
}

// OracleControl resolves g's control with the map-based fixpoint that
// resolve replaced, kept verbatim below, over a map copy of g's
// entities and inbound holdings in their order. The churn oracle test
// holds ControlOf to it bit for bit.
func OracleControl(g *Graph) map[EntityID]Control {
	m := &mapGraph{
		entities: make(map[EntityID]*Entity, len(g.ents)),
		inbound:  make(map[EntityID][]Holding, len(g.ents)),
		dirty:    true,
	}
	for h := range g.ents {
		e := g.ents[h]
		m.entities[e.ID] = &e
		for _, in := range g.in[h] {
			m.inbound[e.ID] = append(m.inbound[e.ID], Holding{Holder: g.ents[in.other].ID, Target: e.ID, Share: in.share})
		}
	}
	m.resolve()
	return m.control
}

// Entities returns all entity IDs in sorted order.
func (g *mapGraph) Entities() []EntityID {
	ids := make([]EntityID, 0, len(g.entities))
	for id := range g.entities {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
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
func (g *mapGraph) resolve() {
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
