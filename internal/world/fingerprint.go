package world

import (
	"stateowned/internal/ownership"
	"stateowned/internal/sched"
)

// This file defines the canonical input projections the memoized build
// fingerprints a world through. Two projections exist because the
// pipeline's sources read the world at two granularities: everything
// except the equity graph (geo, eyeballs, WHOIS, PeeringDB), and the
// full derived ownership view (Orbis, the documents corpus, and the
// topology builder, whose few ownership reads it covers). A source's
// fingerprint combines the projections it reads, so churn that leaves
// a projection untouched leaves the source clean.

// FingerprintStructure hashes every world field except the equity
// graph: seed, countries and their profiles, all operator attributes
// (including entity IDs and ASN lists), and all AS registry records
// with their prefixes, in the world's canonical iteration orders.
func (w *World) FingerprintStructure() sched.Fingerprint {
	h := sched.NewHasher("world/structure")
	h.U64(w.Seed)
	h.I64(int64(len(w.Countries)))
	for _, cc := range w.Countries {
		h.Str(cc)
		p := w.Profiles[cc]
		h.Str(p.Code)
		h.F64(p.ICT)
		h.U64(p.AddressBudget)
		h.I64(int64(p.InternetUsers))
		h.Bool(p.TransitDominated)
		h.Bool(p.GatewayConcentrated)
	}
	h.I64(int64(len(w.OperatorIDs)))
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		h.Str(op.ID)
		h.Str(string(op.Entity))
		h.Str(op.OrgID)
		h.Str(op.LegalName)
		h.Str(op.BrandName)
		h.Str(op.FormerName)
		h.Str(op.Conglomerate)
		h.I64(int64(op.Kind))
		h.Str(op.Country)
		h.I64(int64(op.Subscribers))
		h.F64(op.AddrShare)
		h.F64(op.WebPresence)
		h.Bool(op.QuietGateway)
		h.I64(int64(op.Founded))
		h.I64(int64(len(op.ASNs)))
		for _, a := range op.ASNs {
			h.U64(uint64(a))
		}
	}
	h.I64(int64(len(w.ASNList)))
	for _, n := range w.ASNList {
		a := w.ASes[n]
		h.U64(uint64(a.Number))
		h.Str(a.OperatorID)
		h.Str(a.Name)
		h.Str(a.Country)
		h.I64(int64(a.Registered))
		h.I64(int64(len(a.Prefixes)))
		for _, p := range a.Prefixes {
			h.U64(uint64(p.Base))
			h.U64(uint64(p.Bits))
		}
	}
	return h.Sum()
}

// FingerprintOwnership hashes the full derived ownership view of every
// operator, in OperatorIDs order: resolved control (controller country,
// share, per-state aggregated shares), foreign-subsidiary and
// minority-state status, the controlling parent with its entity
// attributes, and the sorted holder list with each holder's entity
// attributes. This covers every equity-graph read the Orbis and
// documents sources, the topology builder (gateway control and
// foreign-subsidiary status) and the analysis truth scorer perform, so
// two worlds with equal structure and ownership fingerprints are
// indistinguishable to the whole pipeline.
func (w *World) FingerprintOwnership() sched.Fingerprint {
	h := sched.NewHasher("world/ownership")
	g := w.Graph
	hashEntity := func(id ownership.EntityID) {
		e, ok := g.Entity(id)
		h.Bool(ok)
		h.Str(string(e.ID))
		h.I64(int64(e.Kind))
		h.Str(e.Name)
		h.Str(e.Country)
	}
	h.I64(int64(len(w.OperatorIDs)))
	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		h.Str(op.ID)
		c := g.ControlOf(op.Entity)
		h.Str(c.Controller)
		h.F64(c.Share)
		h.StrMapF64(c.StateShares)
		fcc, foreign := g.IsForeignSubsidiary(op.Entity)
		h.Str(fcc)
		h.Bool(foreign)
		mcc, mshare, minority := g.MinorityState(op.Entity)
		h.Str(mcc)
		h.F64(mshare)
		h.Bool(minority)
		parent, hasParent := g.ControllingParent(op.Entity)
		h.Bool(hasParent)
		if hasParent {
			hashEntity(parent)
		}
		hs := g.Holders(op.Entity)
		h.I64(int64(len(hs)))
		for _, hd := range hs {
			h.F64(hd.Share)
			hashEntity(hd.Holder)
		}
	}
	return h.Sum()
}
