package docsrc

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"stateowned/internal/faults"
	"stateowned/internal/nameutil"
	"stateowned/internal/orbis"
	"stateowned/internal/peeringdb"
	"stateowned/internal/whois"
	"stateowned/internal/world"
)

// referenceSearch is Search as it stood before documents were bucketed by
// country, kept verbatim — every document visited, copied and filtered
// per call — except that its score goes through the prepared names
// (nameutil's own differential holds those to the pre-change string
// Similarity). It is the oracle for Search's country index and its
// ordering.
func referenceSearch(c *Corpus, name, country string) []Document {
	type hit struct {
		idx   int
		score float64
	}
	var hits []hit
	for i, d := range c.docs {
		if country != "" && d.Country != country {
			continue
		}
		if s := nameutil.Prepare(name).Similarity(nameutil.Prepare(d.CompanyName)); s >= 0.72 {
			hits = append(hits, hit{i, s})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return hits[i].idx < hits[j].idx
	})
	out := make([]Document, len(hits))
	for i, h := range hits {
		out[i] = c.docs[h.idx]
	}
	return out
}

// searchQueries lists every (name, country) query stages 1–2 can issue
// against a world's corpus: WHOIS organization names and contact-domain
// stems, PeeringDB names, Orbis state-owned telecoms, listing entries,
// and every document's company name and subsidiary mentions.
func searchQueries(w *world.World, c *Corpus) [][2]string {
	var out [][2]string
	seen := map[[2]string]bool{}
	add := func(name, cc string) {
		if k := [2]string{name, cc}; !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	reg, pdb := whois.Build(w), peeringdb.Build(w)
	for _, a := range w.ASNList {
		if rec, ok := reg.Lookup(a); ok {
			add(rec.OrgName, rec.Country)
			if at := strings.IndexByte(rec.Email, '@'); at >= 0 {
				add(strings.SplitN(rec.Email[at+1:], ".", 2)[0], rec.Country)
			}
		}
		if e, ok := pdb.Lookup(a); ok {
			add(e.Name, e.Country)
		}
	}
	for _, e := range orbis.Build(w).StateOwnedTelecoms() {
		add(e.CompanyName, e.Country)
	}
	for _, l := range append(c.FreedomHouseListings(), c.WikipediaListings()...) {
		for _, name := range l.Companies {
			add(name, l.Country)
		}
	}
	for _, d := range c.docs {
		add(d.CompanyName, d.Country)
		for _, s := range d.Subsidiaries {
			add(s.Name, s.Country)
		}
	}
	return out
}

// TestSearchMatchesReference holds Search to the pre-change scan, result
// list for result list, over every query stages 1–2 can issue on three
// worlds, on the pristine corpus and on one that degradation thinned
// (which rebuilds the country index). One query in 128 also runs with
// no country. -short checks one world, one query in 16.
func TestSearchMatchesReference(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	stride := 1
	if testing.Short() {
		seeds, stride = seeds[:1], 16
	}
	for _, seed := range seeds {
		w := world.Generate(world.Config{Seed: seed, Scale: 0.1})
		degraded := Build(w)
		degraded.Degrade(faults.NewPlan(seed, 0.5).Injector("docs", faults.RecordSpec{DropRate: 0.25}))
		for _, c := range []*Corpus{Build(w), degraded} {
			hits := 0
			for i, q := range searchQueries(w, c) {
				if i%stride != 0 {
					continue
				}
				countries := []string{q[1]}
				if i%128 == 0 {
					countries = append(countries, "")
				}
				for _, cc := range countries {
					got, want := c.Search(q[0], cc), referenceSearch(c, q[0], cc)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: Search(%q, %q) returned %d documents, reference %d:\n%+v\n%+v",
							seed, q[0], cc, len(got), len(want), got, want)
					}
					hits += len(got)
				}
			}
			if hits < 1000/stride {
				t.Fatalf("seed %d: only %d documents retrieved across all queries", seed, hits)
			}
		}
	}
}

// referenceHasUSPresence is the US-presence test as it stood before the
// conglomerates with a US operator were collected once per world, kept
// verbatim: every operator is scanned for each operator asked about. It
// is the oracle for usPresence.
func referenceHasUSPresence(w *world.World, op *world.Operator) bool {
	if op.Conglomerate == op.BrandName {
		return false
	}
	for _, id := range w.OperatorIDs {
		o := w.Operators[id]
		if o.Conglomerate == op.Conglomerate && o.Country == "US" {
			return true
		}
	}
	return false
}

// TestUSPresenceMatchesReference holds usPresence to the per-operator
// scan for every operator of three worlds. Some operator outside the US
// must have US presence, or the check is vacuous. The predicate decides
// nothing but whether Build draws for an FCC filing, so equal answers
// mean an equal corpus, which the goldens pin besides.
func TestUSPresenceMatchesReference(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		w := world.Generate(world.Config{Seed: seed, Scale: 0.1})
		hasUS := usPresence(w)
		abroad := 0
		for _, id := range w.OperatorIDs {
			op := w.Operators[id]
			want := referenceHasUSPresence(w, op)
			if got := hasUS(op); got != want {
				t.Fatalf("seed %d: operator %s US presence %v, per-operator scan %v", seed, id, got, want)
			}
			if want && op.Country != "US" {
				abroad++
			}
		}
		if abroad == 0 {
			t.Fatalf("seed %d: no operator outside the US has US presence", seed)
		}
	}
}
