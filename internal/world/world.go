// Package world generates the synthetic ground truth that replaces the
// real Internet and the real corporate world in this reproduction: every
// country's operator companies, their equity structures (who the states
// control), the ASNs and address space they hold, and their subscriber
// bases.
//
// The generator is deterministic in its seed and plants "anchor"
// operators — the companies the paper names explicitly (Telenor, SingTel,
// Ooredoo, Angola Cables, …) with their real ASNs and subsidiary
// footprints — so the reproduced tables are directly comparable to the
// paper's. Everything else is synthesized from per-region statistical
// profiles.
package world

import (
	"fmt"
	"slices"

	"stateowned/internal/ccodes"
	"stateowned/internal/netaddr"
	"stateowned/internal/ownership"
)

// ASN is an autonomous system number.
type ASN uint32

// SortASNs sorts an ASN slice ascending in place. Every package that
// materializes ASN lists for stable consumption goes through this helper.
func SortASNs(asns []ASN) {
	slices.Sort(asns)
}

// OperatorKind classifies a network-operating company. The paper's scope
// filter (§3, §5.3) keys off this: only federal-level operators offering
// unrestricted transit or access count; academic, bureaucratic,
// administrative and non-ISP organizations are excluded.
type OperatorKind uint8

// Operator kinds.
const (
	KindIncumbent      OperatorKind = iota // national fixed-line/broadband incumbent
	KindMobile                             // mobile network operator
	KindRegionalISP                        // competitive access ISP (national license)
	KindTransit                            // wholesale/transit-only carrier
	KindSubmarineCable                     // submarine-cable operator (transit)
	KindAcademic                           // NREN / university network (excluded by scope)
	KindGovernmentNet                      // government office connectivity (excluded)
	KindInternetAdmin                      // NIC / ccTLD / registry bodies (excluded)
	KindMunicipal                          // subnational public operator (excluded: not federal)
	KindEnterprise                         // enterprise / hosting / content ASes
)

// String names the kind.
func (k OperatorKind) String() string {
	switch k {
	case KindIncumbent:
		return "incumbent"
	case KindMobile:
		return "mobile"
	case KindRegionalISP:
		return "regional-isp"
	case KindTransit:
		return "transit"
	case KindSubmarineCable:
		return "submarine-cable"
	case KindAcademic:
		return "academic"
	case KindGovernmentNet:
		return "government-net"
	case KindInternetAdmin:
		return "internet-admin"
	case KindMunicipal:
		return "municipal"
	case KindEnterprise:
		return "enterprise"
	default:
		return "unknown"
	}
}

// InScope reports whether the paper's definition of "Internet operator"
// covers this kind of company: offering transit or unrestricted access at
// federal level.
func (k OperatorKind) InScope() bool {
	switch k {
	case KindIncumbent, KindMobile, KindRegionalISP, KindTransit, KindSubmarineCable:
		return true
	default:
		return false
	}
}

// ProvidesAccess reports whether the kind serves end users (eyeballs).
func (k OperatorKind) ProvidesAccess() bool {
	switch k {
	case KindIncumbent, KindMobile, KindRegionalISP:
		return true
	default:
		return false
	}
}

// Operator is a company operating one or more ASes in one country. A
// multinational group is several Operators (one per country of operation)
// tied together by the ownership graph and a shared Conglomerate name,
// mirroring how the paper models parent companies and their foreign
// subsidiaries as separate legal entities.
type Operator struct {
	ID     string             // stable identifier, e.g. "NO-incumbent-0"
	Entity ownership.EntityID // node in the equity graph
	OrgID  string             // registry org handle, e.g. "ORG-TELE1-RIPE"

	LegalName string // registered legal name (WHOIS OrgName)
	BrandName string // commercial/brand name (PeeringDB, websites)
	// FormerName is a stale legal name still present in WHOIS when the
	// company rebranded or was acquired and the records were never
	// updated (the Internexa/"Transamerican Telecomunication" case).
	FormerName   string
	Conglomerate string // group/brand-family name shared with the parent

	Kind    OperatorKind
	Country string // ISO code of the country of operation/registration

	// Subscribers is the ground-truth residential/mobile subscriber count
	// in Country (eyeball population before estimation noise).
	Subscribers int
	// AddrShare is the ground-truth fraction of Country's announced
	// address space this operator originates.
	AddrShare float64
	// WebPresence in [0,1] scales the probability that authoritative
	// documents (website, annual report) about this company exist online.
	WebPresence float64
	// QuietGateway marks pure transit gateways that serve no consumers
	// and "fly under the radar" of popularity- and ownership-database
	// sources (the paper's Table 7 class: MobiFone Global, BSCCL, the
	// Belarusian exchange ASes). The topology builder places them above
	// their country's primary gateway so CTI sees them.
	QuietGateway bool
	// Founded is the year the company (or its AS registration) appeared.
	Founded int

	ASNs []ASN
}

// AS is one autonomous system: its registry identity and the prefixes it
// originates in BGP.
type AS struct {
	Number     ASN
	OperatorID string
	Name       string // registry AS name (often cryptic, sometimes unrelated to the brand)
	Country    string
	Registered int // year the ASN appeared (drives historical snapshots)
	Prefixes   []netaddr.Prefix
}

// NumAddresses totals the AS's originated address space.
func (a *AS) NumAddresses() uint64 { return netaddr.SumAddresses(a.Prefixes) }

// CountryProfile carries per-country simulation parameters.
type CountryProfile struct {
	Code string
	// ICT in [0,1] models digital-ecosystem maturity: it scales document
	// availability, WHOIS freshness, PeeringDB participation and stub-AS
	// counts (§9 "Visibility and data interpretation").
	ICT float64
	// AddressBudget is the total announced IPv4 address space
	// attributable to the country.
	AddressBudget uint64
	// InternetUsers is the ground-truth eyeball population.
	InternetUsers int
	// TransitDominated marks countries whose inbound connectivity is
	// dominated by transit providers rather than peering; CTI is
	// computed for these (the paper applies CTI in 75 such countries).
	TransitDominated bool
	// GatewayConcentrated marks the stricter condition that domestic
	// connectivity funnels through one or two national gateway ASes
	// (Syria, Cuba, Belarus, ...). Only here do domestic state gateways
	// top the CTI ranking; elsewhere foreign carriers do.
	GatewayConcentrated bool
}

// World is the generated ground truth.
type World struct {
	Seed      uint64
	Graph     *ownership.Graph
	Operators map[string]*Operator
	ASes      map[ASN]*AS
	Profiles  map[string]*CountryProfile

	// stable iteration orders
	OperatorIDs []string
	ASNList     []ASN
	Countries   []string
}

// Operator returns the operator by ID.
func (w *World) Operator(id string) (*Operator, bool) {
	op, ok := w.Operators[id]
	return op, ok
}

// AS returns the AS record for an ASN.
func (w *World) AS(n ASN) (*AS, bool) {
	a, ok := w.ASes[n]
	return a, ok
}

// OperatorOfAS returns the operator owning the ASN.
func (w *World) OperatorOfAS(n ASN) (*Operator, bool) {
	a, ok := w.ASes[n]
	if !ok {
		return nil, false
	}
	return w.Operators[a.OperatorID], true
}

// ControlOf returns the ground-truth control status of an operator.
func (w *World) ControlOf(op *Operator) ownership.Control {
	return w.Graph.ControlOf(op.Entity)
}

// TrueStateOwnedAS reports whether the AS belongs to a majority
// state-owned in-scope Internet operator, and if so which state controls
// it. This is the label the pipeline is scored against.
func (w *World) TrueStateOwnedAS(n ASN) (string, bool) {
	op, ok := w.OperatorOfAS(n)
	if !ok || !op.Kind.InScope() {
		return "", false
	}
	c := w.ControlOf(op)
	if !c.Controlled() {
		return "", false
	}
	return c.Controller, true
}

// OperatorsIn returns the operators registered in a country, sorted by ID.
func (w *World) OperatorsIn(country string) []*Operator {
	var out []*Operator
	for _, id := range w.OperatorIDs {
		if op := w.Operators[id]; op.Country == country {
			out = append(out, op)
		}
	}
	return out
}

// TotalAnnounced returns the total announced address space across all ASes.
func (w *World) TotalAnnounced() uint64 {
	var n uint64
	for _, asn := range w.ASNList {
		n += w.ASes[asn].NumAddresses()
	}
	return n
}

// Validate checks internal consistency; the generator's tests call this.
func (w *World) Validate() error {
	for _, id := range w.OperatorIDs {
		op, ok := w.Operators[id]
		if !ok {
			return fmt.Errorf("world: operator index lists missing %q", id)
		}
		if _, ok := ccodes.ByCode(op.Country); !ok {
			return fmt.Errorf("world: operator %q has unknown country %q", id, op.Country)
		}
		if _, ok := w.Graph.Entity(op.Entity); !ok {
			return fmt.Errorf("world: operator %q has no entity", id)
		}
		for _, asn := range op.ASNs {
			a, ok := w.ASes[asn]
			if !ok {
				return fmt.Errorf("world: operator %q lists missing AS%d", id, asn)
			}
			if a.OperatorID != id {
				return fmt.Errorf("world: AS%d owner mismatch %q != %q", asn, a.OperatorID, id)
			}
		}
	}
	seen := make(map[netaddr.Prefix]ASN)
	for _, asn := range w.ASNList {
		a, ok := w.ASes[asn]
		if !ok {
			return fmt.Errorf("world: ASN index lists missing AS%d", asn)
		}
		for _, p := range a.Prefixes {
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("world: prefix %v originated by AS%d and AS%d", p, prev, asn)
			}
			seen[p] = asn
		}
	}
	return nil
}
