// Adversarial origination: seeded prefix-hijack campaigns layered on the
// honest Gao-Rexford simulator. Each campaign is one invalid announcement
// competing with the victim's legitimate route inside the same valley-free
// selection; per-AS ROV flags gate both adoption and re-export of the
// invalid route, so raising ROV deployment can only shrink the infected
// set. The honest route field is computed first and never perturbed — we
// model pollution of observed paths, not withdrawal-induced re-selection —
// which is exactly what makes rov=1.0 runs byte-identical to the honest
// simulator.

package bgp

import (
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// CampaignKind classifies how an invalid announcement is shaped.
type CampaignKind uint8

const (
	// ExactPrefix re-originates the victim's exact prefix from the
	// hijacker: it wins only where Gao-Rexford prefers it over the
	// honest route, and detection sees the hijacker as origin.
	ExactPrefix CampaignKind = iota
	// SubPrefix announces a more-specific of the victim's prefix:
	// longest-prefix match means every AS the announcement reaches
	// routes via it regardless of preference.
	SubPrefix
	// ForgedPath re-originates the exact prefix behind a fabricated
	// upstream tail ending in the victim, so the observed origin stays
	// the registered one — the campaign evades origin-based detection
	// while still polluting transit observations.
	ForgedPath
)

// String names the kind for reports and tables.
func (k CampaignKind) String() string {
	switch k {
	case ExactPrefix:
		return "exact-prefix"
	case SubPrefix:
		return "sub-prefix"
	case ForgedPath:
		return "forged-path"
	}
	return "unknown"
}

// Campaign is one invalid announcement: Hijacker claims (part of) a
// prefix registered to Victim. Forged lists the fabricated intermediate
// hops of a ForgedPath announcement, hijacker-adjacent first; the wire
// path a polluted monitor observes is
//
//	monitor ... hijacker, Forged..., Victim   (ForgedPath)
//	monitor ... hijacker                       (ExactPrefix, SubPrefix)
type Campaign struct {
	Kind     CampaignKind
	Victim   world.ASN
	Hijacker world.ASN
	Forged   []world.ASN
}

// Adversary bundles a generation's campaigns with the ROV deployment set
// gating them. A nil or campaign-less adversary is inert and the
// collectors below delegate to the honest path.
type Adversary struct {
	Campaigns []Campaign
	ROV       map[world.ASN]bool
}

// Active reports whether the adversary can perturb any route at all.
func (a *Adversary) Active() bool { return a != nil && len(a.Campaigns) > 0 }

// inert reports whether one campaign cannot inject routes: the hijacker
// is outside the topology, self-targeting, or itself validates origins
// (a validating operator drops its own invalid route before export).
func inert(g *topology.Graph, c Campaign, rov map[world.ASN]bool) bool {
	if c.Hijacker == c.Victim || !g.Active(c.Hijacker) {
		return true
	}
	return rov[c.Hijacker]
}

// tailLen is the AS-path length the announcement already carries when it
// leaves the hijacker: zero for origination claims, the fabricated tail
// plus the victim for forged paths (padding that also makes forged
// routes less attractive, as in real path-prepending economics).
func (c Campaign) tailLen() int32 {
	if c.Kind == ForgedPath {
		return int32(len(c.Forged)) + 1
	}
	return 0
}

// propagateHijack spreads one campaign's announcement through the
// graph with the same three valley-free phases as the kernel, within
// the scope sc of the honest run s holds toward c.Victim, gated per AS:
// ROV deployers drop the invalid route outright, and for same-prefix
// campaigns an AS adopts only where the candidate beats its honest
// route under the standard comparator. Non-adopters never re-export, so
// removing propagation paths (more ROV) can only lengthen or remove
// downstream candidates — adoption is monotone non-increasing in the
// deployment set. The per-AS hijack routes land in s.hij (classNone
// where the announcement was not adopted), and s.hijTouched lists the
// ASes routed. It reports false, computing nothing, for inert
// campaigns.
//
// Within the scope of every AS the overlay routes the whole graph. Within
// the monitors' scope the overlay's route on every member, and so every
// monitor's observed path, is the one a whole-graph honest run and
// overlay give, although the honest run leaves exact routes only on the
// members and the victim's provider ancestry, and none anywhere else:
//
//   - Phase 1's candidates are customer routes, which beat every honest
//     route that is not one, including none at all; the honest customer
//     routes are the victim's ancestry, which the kernel climbs in full
//     whatever the scope. So phase 1 adopts the same ASes with the same
//     routes, and lists them.
//   - Phase 2 offers from that list to each adopter's peers in scope,
//     which leaves each member the same offers, and a member adopts by
//     its own exact honest route. The best adopted offer does not depend
//     on the order offers arrive in, as in the kernel.
//   - In phase 3 only a member's providers, all members, offer it a
//     route, and a non-member has no member customer (the scope is
//     closed under providers). Seeding the routed members in dense-index
//     order and descending only members' customers in scope, each
//     frontier holds the same members in the same order, with the same
//     routes.
//   - A member's observed path climbs member routes, crosses at most one
//     peer into phase 1's adopters and descends their routes; where the
//     member did not adopt, it is the member's exact honest path.
//
// TestCollectPathsAdversaryMatchesPerOrigin holds every monitor row to
// the overlay's reference laid on the reference propagation.
func (s *Scratch) propagateHijack(g *topology.Graph, c Campaign, rov map[world.ASN]bool, sc *Scope) bool {
	if inert(g, c, rov) {
		return false
	}
	hIdx, ok := g.Index(c.Hijacker)
	if !ok {
		return false
	}
	vIdx, _ := g.Index(c.Victim)
	honest := s.routes
	routes, touched := resetRoutes(s.hij, s.hijTouched, g.NumASes())
	routes[hIdx] = route{class: classCustomer, dist: c.tailLen(), next: -1}
	touched = append(touched, hIdx)

	adopt := func(p int, cand route) bool {
		if p == vIdx || p == hIdx {
			return false // the victim filters its own space; the hijacker originated
		}
		if rov[g.ASNAt(p)] {
			return false
		}
		if c.Kind == SubPrefix {
			return true // longest-prefix match: no competition with the honest route
		}
		hr := honest[p]
		return hr.class == classNone || better(cand, hr)
	}

	// Phase 1: the invalid route climbs provider edges from adopters.
	queue, next := append(s.queue[:0], hIdx), s.next
	for len(queue) > 0 {
		next = next[:0]
		for _, cur := range queue {
			for _, p := range g.ProviderIdx(cur) {
				cand := route{class: classCustomer, dist: routes[cur].dist + 1, next: int32(cur)}
				if (routes[p].class == classNone || better(cand, routes[p])) && adopt(p, cand) {
					if routes[p].class == classNone {
						next = append(next, p)
						touched = append(touched, p)
					}
					routes[p] = cand
				}
			}
		}
		queue, next = next, queue
	}

	// Phase 2: one peer hop from the customer-class adopters phase 1
	// listed.
	climbed := len(touched)
	for _, i := range touched[:climbed] {
		for _, p := range sc.peers[i] {
			if routes[p].class == classCustomer {
				continue
			}
			cand := route{class: classPeer, dist: routes[i].dist + 1, next: int32(i)}
			if (routes[p].class == classNone || better(cand, routes[p])) && adopt(p, cand) {
				if routes[p].class == classNone {
					touched = append(touched, p)
				}
				routes[p] = cand
			}
		}
	}

	// Phase 3: the invalid route descends customer edges from adopters
	// in scope.
	queue = queue[:0]
	for _, i := range sc.members {
		if routes[i].class != classNone {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		next = next[:0]
		for _, cur := range queue {
			for _, cidx := range sc.customers[cur] {
				cand := route{class: classProvider, dist: routes[cur].dist + 1, next: int32(cur)}
				if routes[cidx].class == classNone {
					if adopt(cidx, cand) {
						routes[cidx] = cand
						next = append(next, cidx)
					}
				} else if routes[cidx].class == classProvider && better(cand, routes[cidx]) && adopt(cidx, cand) {
					routes[cidx] = cand
				}
			}
		}
		queue, next = next, queue
	}
	// Phase 3 routed exactly the members holding provider routes.
	for _, i := range sc.members {
		if routes[i].class == classProvider {
			touched = append(touched, i)
		}
	}
	s.hij, s.hijTouched, s.queue, s.next = routes, touched, queue, next
	return true
}

// observedLen is the length of appendObserved's path for dense index i
// (-1: a monitor outside the graph, which observes nothing).
func (s *Scratch) observedLen(i int, c *Campaign) int {
	switch {
	case i < 0:
		return 0
	case c == nil || s.hij[i].class == classNone:
		return pathLen(s.routes, i)
	}
	n := pathLen(s.hij, i)
	if n > 0 && c.Kind == ForgedPath {
		n += len(c.Forged) + 1
	}
	return n
}

// appendObserved appends what a monitor inside dense index i reports
// for the origin s last propagated. With a live campaign c (s.hij
// computed by propagateHijack) it is the walk to the hijacker plus the
// announcement's claimed tail where the invalid route was adopted; the
// honest path everywhere else.
func (s *Scratch) appendObserved(dst []world.ASN, g *topology.Graph, i int, c *Campaign) []world.ASN {
	switch {
	case i < 0:
		return dst
	case c == nil || s.hij[i].class == classNone:
		return appendPath(dst, g, s.routes, i)
	}
	n := len(dst)
	if dst = appendPath(dst, g, s.hij, i); len(dst) > n && c.Kind == ForgedPath {
		dst = append(dst, c.Forged...)
		dst = append(dst, c.Victim)
	}
	return dst
}

// CollectPathsAdversary is CollectPaths with an adversary in the control
// plane. Origins without a campaign — and every origin when the
// adversary is inert — take the honest propagation byte-for-byte; a
// campaigned origin has its monitors' observed paths overlaid with the
// hijack spread. At most one campaign applies per victim origin (the
// first listed wins), mirroring one-prefix-one-attack plan generation.
func CollectPathsAdversary(g *topology.Graph, monitors []Monitor, origins []world.ASN, workers int, adv *Adversary) *MonitorPaths {
	if !adv.Active() {
		return CollectPaths(g, monitors, origins, workers)
	}
	byVictim := make(map[world.ASN]Campaign, len(adv.Campaigns))
	for _, c := range adv.Campaigns {
		if _, dup := byVictim[c.Victim]; !dup {
			byVictim[c.Victim] = c
		}
	}
	return collect(g, monitors, origins, workers, byVictim, adv.ROV)
}
