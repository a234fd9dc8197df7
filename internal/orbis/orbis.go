// Package orbis simulates the Bureau van Dijk Orbis business-information
// database as the paper experienced it (§4.3, §7): a query for
// majority-state-owned telecommunications companies returns a large list
// (994 in the paper) that (i) includes many state telecom-sector firms
// that are not Internet operators, (ii) misses or mislabels many real
// state-owned ISPs — concentrated in Latin America, Central & Southeast
// Asia and Africa (~140 false negatives across 79 countries) — and (iii)
// wrongly labels a handful of private or subnational firms as federally
// state-owned (~12 false positives, mostly foreign subsidiaries, e.g.
// COMCEL/Claro Colombia).
package orbis

import (
	"fmt"
	"sort"

	"stateowned/internal/ccodes"
	"stateowned/internal/faults"
	"stateowned/internal/rng"
	"stateowned/internal/world"
)

// Entry is one company row returned by the Orbis query.
type Entry struct {
	CompanyName string
	Country     string
	// StateOwned is Orbis's label (possibly wrong).
	StateOwned bool
	// Sector is Orbis's industry classification; stage 2 filters
	// non-operator sectors.
	Sector string
	// OperatorID links the entry to the simulated ground truth; empty
	// for filler (non-operator) companies. The pipeline never reads it —
	// it exists for scoring and tests.
	OperatorID string
}

// Sectors Orbis files telecom-adjacent companies under.
const (
	SectorISP       = "Internet service activities"
	SectorTelephony = "Wired/wireless telecommunications"
	SectorHardware  = "Communication equipment manufacturing"
	SectorTowers    = "Telecommunication infrastructure leasing"
	SectorBroadcast = "Radio and television broadcasting"
	SectorSatellite = "Satellite telecommunications"
)

// labelAccuracy is the per-RIR probability that Orbis correctly labels a
// truly state-owned operator as state-owned, calibrated to §7's findings
// (LACNIC misses 11 of 14 countries; Central Asia largely absent).
var labelAccuracy = map[ccodes.RIR]float64{
	ccodes.RIPE:    0.72,
	ccodes.ARIN:    0.90,
	ccodes.APNIC:   0.52,
	ccodes.AFRINIC: 0.48,
	ccodes.LACNIC:  0.22,
}

// centralAsia lists the countries §7 calls out as uncovered.
var centralAsia = map[string]bool{
	"IR": true, "KZ": true, "UZ": true, "TJ": true, "TM": true, "KG": true,
	"VN": true,
}

// DB is a frozen Orbis snapshot.
type DB struct {
	entries []Entry
}

// Build simulates the database contents for the world.
func Build(w *world.World) *DB {
	r := rng.New(w.Seed).Sub("orbis")
	var entries []Entry

	for _, id := range w.OperatorIDs {
		op := w.Operators[id]
		c := ccodes.MustByCode(op.Country)
		prof := w.Profiles[op.Country]
		or := r.Sub("op/" + op.ID)

		// Presence: Orbis coverage is broad but weakest where corporate
		// filings are thin. Quiet transit gateways fly under its radar
		// almost entirely (§7: the CTI-only class).
		presence := 0.45 + 0.5*prof.ICT
		if op.QuietGateway {
			presence *= 0.05
		}
		if !or.Bool(presence) {
			continue
		}
		ctrl := w.Graph.ControlOf(op.Entity)
		truthState := ctrl.Controlled() && op.Kind.InScope()

		label := false
		switch {
		case truthState:
			acc := labelAccuracy[c.RIR]
			if centralAsia[op.Country] {
				acc = 0.08
			}
			label = or.Bool(acc)
		case op.Kind == world.KindMunicipal:
			// Subnational public firms sometimes carry a bare
			// "government owned" flag Orbis surfaces as state-owned
			// (two of the paper's Colombian false positives).
			label = or.Bool(0.30)
		default:
			// Private false positives concentrate on foreign
			// subsidiaries of conglomerates with tangled holdings.
			fp := 0.004
			if op.Conglomerate != op.BrandName {
				fp = 0.06
			}
			label = or.Bool(fp)
		}

		sector := SectorISP
		if op.Kind == world.KindMobile {
			sector = SectorTelephony
		}
		entries = append(entries, Entry{
			CompanyName: op.LegalName,
			Country:     op.Country,
			StateOwned:  label,
			Sector:      sector,
			OperatorID:  op.ID,
		})
	}

	// The planted COMCEL case: América Móvil's Colombian subsidiary is
	// always present and always mislabeled.
	if comcel := findByBrand(w, "Comunicacion Celular de Colombia"); comcel != nil {
		present := false
		for i := range entries {
			if entries[i].OperatorID == comcel.ID {
				entries[i].StateOwned = true
				present = true
			}
		}
		if !present {
			entries = append(entries, Entry{
				CompanyName: comcel.LegalName, Country: comcel.Country,
				StateOwned: true, Sector: SectorTelephony, OperatorID: comcel.ID,
			})
		}
	}

	// Filler rows: state telecom-sector firms that are not Internet
	// operators (equipment, towers, broadcasting, satellite). These are
	// what pushes the paper's query to ~994 rows and what stage 2's
	// sector filter has to discard.
	fillerSectors := []string{SectorHardware, SectorTowers, SectorBroadcast, SectorSatellite}
	for _, cc := range w.Countries {
		cr := r.Sub("filler/" + cc)
		c := ccodes.MustByCode(cc)
		n := cr.IntBetween(3, 7)
		for i := 0; i < n; i++ {
			sector := fillerSectors[cr.Intn(len(fillerSectors))]
			entries = append(entries, Entry{
				CompanyName: fmt.Sprintf("%s National %s Company", c.Name, fillerName(sector)),
				Country:     cc,
				StateOwned:  true,
				Sector:      sector,
			})
		}
	}

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Country != entries[j].Country {
			return entries[i].Country < entries[j].Country
		}
		return entries[i].CompanyName < entries[j].CompanyName
	})
	return &DB{entries: entries}
}

func fillerName(sector string) string {
	switch sector {
	case SectorHardware:
		return "Communication Equipment"
	case SectorTowers:
		return "Tower Infrastructure"
	case SectorBroadcast:
		return "Broadcasting"
	default:
		return "Satellite"
	}
}

func findByBrand(w *world.World, brand string) *world.Operator {
	for _, id := range w.OperatorIDs {
		if w.Operators[id].BrandName == brand {
			return w.Operators[id]
		}
	}
	return nil
}

// Fetch models querying the live service under faults: the first
// `timeouts` attempts fail transiently (rate-limiting), after which the
// snapshot arrives — possibly truncated and damaged per the injector.
// The hardened runner drives the attempt counter through its retry loop.
func Fetch(w *world.World, attempt, timeouts int, in *faults.Injector) (*DB, error) {
	if attempt <= timeouts {
		return nil, &faults.TransientError{Source: "orbis", Attempt: attempt}
	}
	db := Build(w)
	if in != nil {
		db.Degrade(in)
	}
	return db, nil
}

// Degrade injects response truncation (dropped rows — the rate-limited
// query returned a partial page) and row damage (mangled company names)
// into the snapshot. Damaged rows stay for the validation pass.
func (d *DB) Degrade(in *faults.Injector) faults.Damage {
	kept := d.entries[:0]
	for _, e := range d.entries {
		switch in.Next() {
		case faults.Drop:
			continue
		case faults.Corrupt:
			if in.Coin() {
				e.CompanyName = in.MangleText(e.CompanyName)
			} else {
				e.Country = faults.BadCountry
			}
		}
		kept = append(kept, e)
	}
	d.entries = kept
	return in.Damage()
}

// Quarantine is the validation pass: rows with damaged names or
// unresolvable countries are removed and counted.
func (d *DB) Quarantine() int {
	n := 0
	kept := d.entries[:0]
	for _, e := range d.entries {
		_, ccOK := ccodes.ByCode(e.Country)
		if faults.Mangled(e.CompanyName) || !ccOK {
			n++
			continue
		}
		kept = append(kept, e)
	}
	d.entries = kept
	return n
}

// StateOwnedTelecoms runs the paper's Orbis query: telecom-sector
// companies labeled majority state-owned.
func (d *DB) StateOwnedTelecoms() []Entry {
	var out []Entry
	for _, e := range d.entries {
		if e.StateOwned {
			out = append(out, e)
		}
	}
	return out
}
