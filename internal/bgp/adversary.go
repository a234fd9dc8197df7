// Adversarial origination: seeded prefix-hijack campaigns layered on the
// honest Gao-Rexford simulator. Each campaign is one invalid announcement
// competing with the victim's legitimate route inside the same valley-free
// selection: it spreads through the kernel's own body, seeded at the
// hijacker, behind a gate that decides whether an AS takes it. Per-AS ROV
// flags gate both adoption and re-export of the invalid route, so raising
// ROV deployment can only shrink the infected set. The honest route field
// is computed first and never perturbed — we model pollution of observed
// paths, not withdrawal-induced re-selection — which is exactly what
// makes rov=1.0 runs byte-identical to the honest simulator.

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
// gating them. A nil or campaign-less adversary is inert: CollectPaths
// then collects the honest paths.
type Adversary struct {
	Campaigns []Campaign
	ROV       map[world.ASN]bool
}

// Active reports whether the adversary can perturb any route at all.
func (a *Adversary) Active() bool { return a != nil && len(a.Campaigns) > 0 }

// rovIndex returns the ROV deployment rov as a dense slice over g's
// ASes, true where the AS validates origins. ASNs outside g and false
// entries are ignored.
func rovIndex(g *topology.Graph, rov map[world.ASN]bool) []bool {
	dense := make([]bool, g.NumASes())
	for asn, on := range rov {
		if i, ok := g.Index(asn); ok && on {
			dense[i] = true
		}
	}
	return dense
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

// gate decides whether an AS takes a campaign's invalid announcement as
// its first route in an overlay. The kernel's body consults it nowhere
// else (propagate says why no later route needs it), so never at the
// hijacker, which holds the seed's route from the start.
type gate struct {
	rov    []bool  // dense over the graph: the ASes that validate origins
	honest []route // the honest routes toward the victim; nil for a sub-prefix campaign
	victim int     // the victim's dense index
}

// adopts reports whether AS i takes cand. The victim filters its own
// space and a validating AS drops the invalid route outright; a
// sub-prefix route wins wherever it arrives, by longest-prefix match;
// a same-prefix route wins only where it beats i's honest route under
// the standard comparator.
func (gt *gate) adopts(i int, cand route) bool {
	if i == gt.victim || gt.rov[i] {
		return false
	}
	return gt.honest == nil || gt.honest[i].class == classNone || better(cand, gt.honest[i])
}

// propagateHijack spreads one campaign's announcement through the
// kernel's body (propagate), seeded at the hijacker at its claimed
// tail's length, within the scope sc of the honest run s holds toward
// c.Victim, behind a gate (gate.adopts) built from that run's routes
// and the ROV deployment rov, dense over g (rovIndex). Non-adopters
// never re-export, so removing propagation paths (more ROV) can only
// lengthen or remove downstream candidates — adoption is monotone
// non-increasing in the deployment set. The per-AS hijack routes land
// in s.hij (classNone where the announcement was not adopted), and
// s.hijTouched lists the ASes routed. It reports false, computing
// nothing, for an inert campaign: the hijacker is outside the topology,
// self-targeting, or itself validates origins (a validating operator
// drops its own invalid route before export).
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
//     whatever the scope. So phase 1's gate admits the same ASes, which
//     take the same routes, and phase 1 lists them.
//   - Phase 2 offers from that list to each adopter's peers in scope,
//     which leaves each member the same offers, and the gate judges a
//     member by its own exact honest route. The best adopted offer does
//     not depend on the order offers arrive in, as in the honest run.
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
// the overlay's reference laid on the reference propagation, and
// TestHijackOverlaySweep and FuzzKernelMatchesReference hold the
// overlay's routes to it in both scopes.
func (s *Scratch) propagateHijack(g *topology.Graph, c Campaign, rov []bool, sc *Scope) bool {
	hIdx, ok := g.Index(c.Hijacker)
	if !ok || c.Hijacker == c.Victim || rov[hIdx] {
		return false
	}
	vIdx, _ := g.Index(c.Victim)
	gt := gate{rov: rov, honest: s.routes, victim: vIdx}
	if c.Kind == SubPrefix {
		gt.honest = nil // longest-prefix match: no competition with the honest route
	}
	s.hij, s.hijTouched = s.propagate(g, hIdx, c.tailLen(), s.hij, s.hijTouched, sc, &gt)
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
