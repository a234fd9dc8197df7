package ownership

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func build(t *testing.T) *Graph {
	t.Helper()
	return NewGraph()
}

func TestDirectMajority(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-NO", Kind: KindGovernment, Name: "Government of Norway", Country: "NO"})
	g.MustAddEntity(Entity{ID: "telenor", Kind: KindCompany, Name: "Telenor", Country: "NO"})
	g.MustAddEntity(Entity{ID: "float", Kind: KindPrivate, Name: "Free float", Country: "NO"})
	g.MustAddHolding(Holding{Holder: "gov-NO", Target: "telenor", Share: 0.547})
	g.MustAddHolding(Holding{Holder: "float", Target: "telenor", Share: 0.453})

	c := g.ControlOf("telenor")
	if c.Controller != "NO" {
		t.Fatalf("controller = %q, want NO", c.Controller)
	}
	if c.Share != 0.547 {
		t.Errorf("share = %f", c.Share)
	}
}

func TestMinorityNotControlled(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-DE", Kind: KindGovernment, Name: "Germany", Country: "DE"})
	g.MustAddEntity(Entity{ID: "dtag", Kind: KindCompany, Name: "Deutsche Telekom", Country: "DE"})
	g.MustAddEntity(Entity{ID: "float", Kind: KindPrivate, Name: "Free float", Country: "DE"})
	g.MustAddHolding(Holding{Holder: "gov-DE", Target: "dtag", Share: 0.31})
	g.MustAddHolding(Holding{Holder: "float", Target: "dtag", Share: 0.69})

	if g.ControlOf("dtag").Controlled() {
		t.Error("31% should not confer control")
	}
	country, share, ok := g.MinorityState("dtag")
	if !ok || country != "DE" || share != 0.31 {
		t.Errorf("MinorityState = %q %f %v", country, share, ok)
	}
}

// TestFundAggregation models the Telekom Malaysia case: three
// state-controlled funds whose aggregate crosses 50%.
func TestFundAggregation(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-MY", Kind: KindGovernment, Name: "Malaysia", Country: "MY"})
	for _, f := range []string{"khazanah", "amanah", "epf"} {
		g.MustAddEntity(Entity{ID: EntityID(f), Kind: KindFund, Name: f, Country: "MY"})
		g.MustAddHolding(Holding{Holder: "gov-MY", Target: EntityID(f), Share: 1})
	}
	g.MustAddEntity(Entity{ID: "tm", Kind: KindCompany, Name: "Telekom Malaysia", Country: "MY"})
	g.MustAddEntity(Entity{ID: "float", Kind: KindPrivate, Name: "Free float", Country: "MY"})
	g.MustAddHolding(Holding{Holder: "khazanah", Target: "tm", Share: 0.26})
	g.MustAddHolding(Holding{Holder: "amanah", Target: "tm", Share: 0.12})
	g.MustAddHolding(Holding{Holder: "epf", Target: "tm", Share: 0.16})
	g.MustAddHolding(Holding{Holder: "float", Target: "tm", Share: 0.46})

	c := g.ControlOf("tm")
	if c.Controller != "MY" {
		t.Fatalf("aggregated funds should confer control, got %+v", c)
	}
	if c.Share < 0.539 || c.Share > 0.541 {
		t.Errorf("aggregate share = %f, want 0.54", c.Share)
	}
}

// TestIndirectChain checks control through a chain: state -> holdco ->
// opco, where no single direct link would reveal it.
func TestIndirectChain(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-QA", Kind: KindGovernment, Name: "Qatar", Country: "QA"})
	g.MustAddEntity(Entity{ID: "ooredoo", Kind: KindCompany, Name: "Ooredoo", Country: "QA"})
	g.MustAddEntity(Entity{ID: "ooredoo-tn", Kind: KindCompany, Name: "Ooredoo Tunisie", Country: "TN"})
	g.MustAddEntity(Entity{ID: "float", Kind: KindPrivate, Name: "float", Country: "QA"})
	g.MustAddHolding(Holding{Holder: "gov-QA", Target: "ooredoo", Share: 0.68})
	g.MustAddHolding(Holding{Holder: "float", Target: "ooredoo", Share: 0.32})
	g.MustAddHolding(Holding{Holder: "ooredoo", Target: "ooredoo-tn", Share: 0.75})

	c := g.ControlOf("ooredoo-tn")
	if c.Controller != "QA" {
		t.Fatalf("subsidiary not attributed to QA: %+v", c)
	}
	owner, ok := g.IsForeignSubsidiary("ooredoo-tn")
	if !ok || owner != "QA" {
		t.Errorf("IsForeignSubsidiary = %q %v", owner, ok)
	}
	if _, ok := g.IsForeignSubsidiary("ooredoo"); ok {
		t.Error("domestic company flagged as foreign subsidiary")
	}
	parent, ok := g.ControllingParent("ooredoo-tn")
	if !ok || parent != "ooredoo" {
		t.Errorf("ControllingParent = %q %v, want ooredoo", parent, ok)
	}
}

// jointVenture reports whether two or more states hold at least the given
// floor of the entity's equity each (e.g., PTCL: Pakistan + UAE). Returns
// the participating countries sorted by descending share.
func jointVenture(g *Graph, id EntityID, floor float64) ([]string, bool) {
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

// TestJointVenture models PTCL: Pakistan 62% via govt, UAE 26% via
// Etisalat; control goes to the larger holder.
func TestJointVenture(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-PK", Kind: KindGovernment, Name: "Pakistan", Country: "PK"})
	g.MustAddEntity(Entity{ID: "gov-AE", Kind: KindGovernment, Name: "UAE", Country: "AE"})
	g.MustAddEntity(Entity{ID: "etisalat", Kind: KindCompany, Name: "Etisalat", Country: "AE"})
	g.MustAddEntity(Entity{ID: "ptcl", Kind: KindCompany, Name: "PTCL", Country: "PK"})
	g.MustAddHolding(Holding{Holder: "gov-AE", Target: "etisalat", Share: 0.6})
	g.MustAddHolding(Holding{Holder: "gov-PK", Target: "ptcl", Share: 0.62})
	g.MustAddHolding(Holding{Holder: "etisalat", Target: "ptcl", Share: 0.26})

	c := g.ControlOf("ptcl")
	if c.Controller != "PK" {
		t.Fatalf("PTCL controller = %q, want PK", c.Controller)
	}
	parts, ok := jointVenture(g, "ptcl", 0.20)
	if !ok || len(parts) != 2 || parts[0] != "PK" || parts[1] != "AE" {
		t.Errorf("JointVenture = %v %v", parts, ok)
	}
	if _, ok := jointVenture(g, "etisalat", 0.20); ok {
		t.Error("single-state firm reported as joint venture")
	}
}

func TestExactlyFiftyPercent(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-UY", Kind: KindGovernment, Name: "Uruguay", Country: "UY"})
	g.MustAddEntity(Entity{ID: "co", Kind: KindCompany, Name: "Co", Country: "UY"})
	g.MustAddEntity(Entity{ID: "p", Kind: KindPrivate, Name: "p", Country: "UY"})
	g.MustAddHolding(Holding{Holder: "gov-UY", Target: "co", Share: 0.50})
	g.MustAddHolding(Holding{Holder: "p", Target: "co", Share: 0.50})
	// IMF criterion: "at least 50%" — exactly 50% is state-owned.
	if !g.ControlOf("co").Controlled() {
		t.Error("exactly 50% should confer control")
	}
}

func TestCyclicCrossHoldings(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-X", Kind: KindGovernment, Name: "X", Country: "FR"})
	g.MustAddEntity(Entity{ID: "a", Kind: KindCompany, Name: "A", Country: "FR"})
	g.MustAddEntity(Entity{ID: "b", Kind: KindCompany, Name: "B", Country: "FR"})
	g.MustAddHolding(Holding{Holder: "gov-X", Target: "a", Share: 0.6})
	g.MustAddHolding(Holding{Holder: "a", Target: "b", Share: 0.55})
	g.MustAddHolding(Holding{Holder: "b", Target: "a", Share: 0.2})
	// Must terminate and attribute both to FR.
	if g.ControlOf("a").Controller != "FR" || g.ControlOf("b").Controller != "FR" {
		t.Error("cycle resolution failed")
	}
}

func TestValidation(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "a", Kind: KindCompany, Name: "A", Country: "FR"})
	g.MustAddEntity(Entity{ID: "b", Kind: KindCompany, Name: "B", Country: "FR"})
	if err := g.AddEntity(Entity{ID: "a", Kind: KindCompany}); err == nil {
		t.Error("duplicate entity accepted")
	}
	if err := g.AddEntity(Entity{ID: "g", Kind: KindGovernment}); err == nil {
		t.Error("government without country accepted")
	}
	if err := g.AddHolding(Holding{Holder: "a", Target: "b", Share: 1.5}); err == nil {
		t.Error("share > 1 accepted")
	}
	if err := g.AddHolding(Holding{Holder: "a", Target: "a", Share: 0.5}); err == nil {
		t.Error("self-holding accepted")
	}
	if err := g.AddHolding(Holding{Holder: "missing", Target: "b", Share: 0.5}); err == nil {
		t.Error("unknown holder accepted")
	}
	g.MustAddHolding(Holding{Holder: "a", Target: "b", Share: 0.7})
	if err := g.AddHolding(Holding{Holder: "a", Target: "b", Share: 0.4}); err == nil {
		t.Error("over-100% holdings accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov-MY", Kind: KindGovernment, Name: "Malaysia", Country: "MY"})
	g.MustAddEntity(Entity{ID: "fund", Kind: KindFund, Name: "Khazanah", Country: "MY"})
	g.MustAddEntity(Entity{ID: "tm", Kind: KindCompany, Name: "Telekom Malaysia", Country: "MY"})
	g.MustAddHolding(Holding{Holder: "gov-MY", Target: "fund", Share: 1})
	g.MustAddHolding(Holding{Holder: "fund", Target: "tm", Share: 0.54})
	var b strings.Builder
	if err := g.WriteDOT(&b, "tm"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph ownership", "Telekom Malaysia", "Khazanah", "54.0%", "\"fund\" -> \"tm\""} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestRemoveHolding(t *testing.T) {
	g := build(t)
	g.MustAddEntity(Entity{ID: "gov", Kind: KindGovernment, Name: "G", Country: "FJ"})
	g.MustAddEntity(Entity{ID: "co", Kind: KindCompany, Name: "C", Country: "FJ"})
	g.MustAddHolding(Holding{Holder: "gov", Target: "co", Share: 0.7})
	if !g.ControlOf("co").Controlled() {
		t.Fatal("setup broken")
	}
	if got := g.RemoveHolding("gov", "co"); got != 0.7 {
		t.Errorf("removed share = %f", got)
	}
	if g.ControlOf("co").Controlled() {
		t.Error("control persists after removal")
	}
	if got := g.RemoveHolding("gov", "co"); got != 0 {
		t.Errorf("second removal returned %f", got)
	}
	// The freed equity can be re-assigned without tripping the 100% cap.
	g.MustAddHolding(Holding{Holder: "gov", Target: "co", Share: 0.9})
}

// Property: adding private holdings never grants state control, and
// control is stable under recomputation.
func TestControlProperties(t *testing.T) {
	f := func(shareRaw uint16, privRaw uint16) bool {
		share := 0.01 + 0.98*float64(shareRaw)/65535.0
		g := NewGraph()
		g.MustAddEntity(Entity{ID: "gov", Kind: KindGovernment, Name: "G", Country: "SE"})
		g.MustAddEntity(Entity{ID: "co", Kind: KindCompany, Name: "C", Country: "SE"})
		g.MustAddEntity(Entity{ID: "p", Kind: KindPrivate, Name: "P", Country: "SE"})
		g.MustAddHolding(Holding{Holder: "gov", Target: "co", Share: share})
		priv := (1 - share) * float64(privRaw) / 65535.0
		if priv > 0 {
			g.MustAddHolding(Holding{Holder: "p", Target: "co", Share: priv})
		}
		c1 := g.ControlOf("co")
		c2 := g.ControlOf("co")
		if c1.Controller != c2.Controller {
			return false
		}
		want := share >= MajorityThreshold-1e-12
		return c1.Controlled() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: control aggregates are monotone — granting the state an
// additional stake never removes control.
func TestControlMonotonicity(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := 0.30 + 0.25*float64(aRaw)/65535.0 // 0.30..0.55
		b := 0.10 + 0.20*float64(bRaw)/65535.0 // 0.10..0.30
		if a+b > 1 {
			return true
		}
		mk := func(withSecond bool) Control {
			g := NewGraph()
			g.MustAddEntity(Entity{ID: "gov", Kind: KindGovernment, Name: "G", Country: "AR"})
			g.MustAddEntity(Entity{ID: "fund", Kind: KindFund, Name: "F", Country: "AR"})
			g.MustAddEntity(Entity{ID: "co", Kind: KindCompany, Name: "C", Country: "AR"})
			g.MustAddHolding(Holding{Holder: "gov", Target: "fund", Share: 1})
			g.MustAddHolding(Holding{Holder: "gov", Target: "co", Share: a})
			if withSecond {
				g.MustAddHolding(Holding{Holder: "fund", Target: "co", Share: b})
			}
			return g.ControlOf("co")
		}
		without, with := mk(false), mk(true)
		if without.Controlled() && !with.Controlled() {
			return false
		}
		return with.StateShares["AR"] >= without.StateShares["AR"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// cloneFixture is a small graph with every control pattern the churn
// model touches: a direct majority, fund aggregation, an indirect
// subsidiary chain and a private-majority incumbent.
func cloneFixture() *Graph {
	g := NewGraph()
	for _, e := range []Entity{
		{ID: "gov-NO", Kind: KindGovernment, Name: "Norway", Country: "NO"},
		{ID: "gov-MY", Kind: KindGovernment, Name: "Malaysia", Country: "MY"},
		{ID: "gov-QA", Kind: KindGovernment, Name: "Qatar", Country: "QA"},
		{ID: "telenor", Kind: KindCompany, Name: "Telenor", Country: "NO"},
		{ID: "khazanah", Kind: KindFund, Name: "Khazanah", Country: "MY"},
		{ID: "epf", Kind: KindFund, Name: "EPF", Country: "MY"},
		{ID: "tm", Kind: KindCompany, Name: "Telekom Malaysia", Country: "MY"},
		{ID: "ooredoo", Kind: KindCompany, Name: "Ooredoo", Country: "QA"},
		{ID: "ooredoo-tn", Kind: KindCompany, Name: "Ooredoo Tunisie", Country: "TN"},
		{ID: "float", Kind: KindPrivate, Name: "Free float", Country: "NO"},
		{ID: "fiji-tel", Kind: KindCompany, Name: "Fiji Telecom", Country: "FJ"},
		{ID: "fiji-inv", Kind: KindPrivate, Name: "Fiji investors", Country: "FJ"},
	} {
		g.MustAddEntity(e)
	}
	for _, h := range []Holding{
		{Holder: "gov-NO", Target: "telenor", Share: 0.547},
		{Holder: "float", Target: "telenor", Share: 0.453},
		{Holder: "gov-MY", Target: "khazanah", Share: 1},
		{Holder: "gov-MY", Target: "epf", Share: 1},
		{Holder: "khazanah", Target: "tm", Share: 0.26},
		{Holder: "epf", Target: "tm", Share: 0.28},
		{Holder: "float", Target: "tm", Share: 0.46},
		{Holder: "gov-QA", Target: "ooredoo", Share: 0.68},
		{Holder: "float", Target: "ooredoo", Share: 0.32},
		{Holder: "ooredoo", Target: "ooredoo-tn", Share: 0.75},
		{Holder: "fiji-inv", Target: "fiji-tel", Share: 0.8},
	} {
		g.MustAddHolding(h)
	}
	return g
}

// churnLike applies the mutations the churn model makes — a
// privatization (state holdings removed, a new buyer takes them) and a
// nationalization (the private majority moves to a new government
// unit) — plus a stake added to lists nothing was removed from, which
// must grow them without touching any other list.
func churnLike(g *Graph) {
	removed := g.RemoveHolding("gov-NO", "telenor")
	g.MustAddEntity(Entity{ID: "buyer-telenor", Kind: KindPrivate, Name: "Telenor private investors", Country: "NO"})
	g.MustAddHolding(Holding{Holder: "buyer-telenor", Target: "telenor", Share: removed})
	g.RemoveHolding("khazanah", "tm")
	share := g.RemoveHolding("fiji-inv", "fiji-tel")
	g.MustAddEntity(Entity{ID: "gov-FJ", Kind: KindGovernment, Name: "Government of FJ", Country: "FJ"})
	g.MustAddHolding(Holding{Holder: "gov-FJ", Target: "fiji-tel", Share: share})
	g.MustAddHolding(Holding{Holder: "gov-QA", Target: "ooredoo-tn", Share: 0.1})
}

// graphState renders every entity, its holder and holding lists and its
// resolved control, so two graphs compare equal exactly when no reader
// can tell them apart.
func graphState(g *Graph) string {
	var b strings.Builder
	for _, id := range g.Entities() {
		e, _ := g.Entity(id)
		c := g.ControlOf(id)
		fmt.Fprintf(&b, "%s %v %s %s | %q %.6f", id, e.Kind, e.Name, e.Country, c.Controller, c.Share)
		countries := make([]string, 0, len(c.StateShares))
		for cc := range c.StateShares {
			countries = append(countries, cc)
		}
		sort.Strings(countries)
		for _, cc := range countries {
			fmt.Fprintf(&b, " %s=%.6f", cc, c.StateShares[cc])
		}
		b.WriteString(" | in:")
		for _, h := range g.inbound[id] {
			fmt.Fprintf(&b, " %s=%.6f", h.Holder, h.Share)
		}
		b.WriteString(" | out:")
		for _, h := range g.outbound[id] {
			fmt.Fprintf(&b, " %s=%.6f", h.Target, h.Share)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCloneIndependence is the contract parent-evolved generations rest
// on: a clone's mutations never reach its parent (which keeps serving
// pinned reads), two clones of one parent never see each other's
// writes (a staged build that is aborted and staged again), and the
// same operations on a clone and on the original reach equal graphs.
func TestCloneIndependence(t *testing.T) {
	parent := cloneFixture()
	before := graphState(parent) // resolves the control memo the clones share
	a, b := parent.Clone(), parent.Clone()
	if got := graphState(a); got != before {
		t.Fatalf("fresh clone differs from its parent:\n%s\nwant:\n%s", got, before)
	}

	churnLike(a)
	if !a.ControlOf("fiji-tel").Controlled() || a.ControlOf("telenor").Controlled() {
		t.Fatal("the mutations did not move control on the clone; the test is vacuous")
	}
	if got := graphState(parent); got != before {
		t.Errorf("mutating a clone changed its parent:\n%s\nwant:\n%s", got, before)
	}
	if got := graphState(b); got != before {
		t.Errorf("mutating one clone changed its sibling:\n%s\nwant:\n%s", got, before)
	}

	churnLike(b)
	want := graphState(a)
	if got := graphState(b); got != want {
		t.Errorf("the same operations on two clones diverged:\n%s\nwant:\n%s", got, want)
	}
	churnLike(parent)
	if got := graphState(parent); got != want {
		t.Errorf("the same operations on the original and on a clone diverged:\n%s\nwant:\n%s", got, want)
	}
}
