// Package serve is the build-once/serve-many layer on top of the
// pipeline: it compiles an expand.Dataset into an immutable Index whose
// ASN, country and organization lookups never scan the dataset, and
// exposes the dataset over a concurrent HTTP JSON API with a bounded LRU
// response cache and a serve-metrics registry.
//
// The paper's contribution is ultimately a dataset that downstream users
// query ("is AS7473 state-owned, by whom, on what evidence?"); this
// package turns one pipeline run into a long-lived query service instead
// of re-running the pipeline — and linearly rescanning the dataset — per
// question.
package serve

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"stateowned/internal/expand"
	"stateowned/internal/nameutil"
	"stateowned/internal/world"
)

// Org pairs an organization record with the ASNs it owns — one joined
// row of the dataset's two Listing-1 arrays.
type Org struct {
	Record *expand.OrgRecord
	ASNs   []world.ASN
}

// Index is an immutable set of lookup structures compiled from a
// dataset. Everything is built once by BuildIndex and never mutated, so
// an Index is safe for unlimited concurrent readers without locking.
//
// The per-ASN question is answered from one sorted table of the
// dataset's ASNs and their packed handles: 8 bytes per dataset ASN
// (about 5 KB at scale 0.5), where a table indexed by ASN would span
// every number up to the largest one the dataset names. A lookup is a
// binary search, about ten probes into a table that fits in L1.
type Index struct {
	ds *expand.Dataset

	// asns holds every ASN the dataset names, ascending, with its packed
	// handle: low 31 bits = organization index + 1 (0 = no majority
	// owner), top bit = the ASN appears in minority records.
	asns []asnHandle

	asnMinority map[world.ASN][]int // ASN -> minority-record indices
	orgByID     map[string]int      // org_id -> organization index

	countryOrgs     map[string][]int // operating CC -> organization indices
	countryMinority map[string][]int // CC -> minority-record indices

	nameToken map[string][]int // normalized token -> organization indices
	names     []nameutil.Name  // organization names prepared for Search, by index
}

// asnHandle is one row of the ASN table.
type asnHandle struct {
	asn world.ASN
	h   uint32
}

// handle encoding for the ASN table.
const (
	orgIdxMask   = 1<<31 - 1
	minorityFlag = 1 << 31
)

// BuildIndex compiles the dataset into an Index. The dataset is adopted,
// not copied: callers must not mutate it afterwards (the pipeline never
// does — a Dataset is write-once output of stage 3).
func BuildIndex(ds *expand.Dataset) *Index {
	idx := &Index{
		ds:              ds,
		asnMinority:     make(map[world.ASN][]int),
		orgByID:         make(map[string]int, len(ds.Organizations)),
		countryOrgs:     make(map[string][]int),
		countryMinority: make(map[string][]int),
		nameToken:       make(map[string][]int),
		names:           make([]nameutil.Name, len(ds.Organizations)),
	}
	// Every (ASN, organization) and (ASN, minority) pair, in dataset
	// order: organizations first, minority records after, so that once
	// stably sorted by ASN the pairs fold into each ASN's handle with
	// the later organization winning, as if set one by one.
	n := 0
	for i := range ds.ASNs {
		n += len(ds.ASNs[i].ASNs)
	}
	for i := range ds.Minority {
		n += len(ds.Minority[i].ASNs)
	}
	pairs := make([]asnHandle, 0, n)

	for i := range ds.Organizations {
		org := &ds.Organizations[i]
		idx.orgByID[org.OrgID] = i
		idx.countryOrgs[org.OperatingCountry()] = append(idx.countryOrgs[org.OperatingCountry()], i)
		for _, a := range ds.ASNs[i].ASNs {
			pairs = append(pairs, asnHandle{asn: a, h: uint32(i + 1)})
		}
		idx.names[i] = nameutil.Prepare(org.OrgName)
		for _, tok := range idx.names[i].Tokens {
			idx.nameToken[tok] = append(idx.nameToken[tok], i)
		}
	}
	for i := range ds.Minority {
		m := &ds.Minority[i]
		idx.countryMinority[m.CC] = append(idx.countryMinority[m.CC], i)
		for _, a := range m.ASNs {
			idx.asnMinority[a] = append(idx.asnMinority[a], i)
			pairs = append(pairs, asnHandle{asn: a, h: minorityFlag})
		}
	}
	slices.SortStableFunc(pairs, func(x, y asnHandle) int { return cmp.Compare(x.asn, y.asn) })
	asns := pairs[:0] // folded in place: a write never passes the read
	for _, p := range pairs {
		last := len(asns) - 1
		if last < 0 || asns[last].asn != p.asn {
			asns = append(asns, p)
			continue
		}
		h := &asns[last].h
		if p.h == minorityFlag {
			*h |= minorityFlag
		} else {
			*h = *h&minorityFlag | p.h
		}
	}
	idx.asns = slices.Clip(asns)
	// Canonicalize per-country ordering: organizations by OrgID, minority
	// records by (name, owner, share). Dataset assembly order is an
	// artifact of pipeline internals; the canonical order is a stable API
	// guarantee.
	for cc := range idx.countryOrgs {
		orgs := idx.countryOrgs[cc]
		sort.Slice(orgs, func(a, b int) bool {
			return ds.Organizations[orgs[a]].OrgID < ds.Organizations[orgs[b]].OrgID
		})
	}
	for cc := range idx.countryMinority {
		min := idx.countryMinority[cc]
		sort.Slice(min, func(a, b int) bool {
			return MinorityLess(&ds.Minority[min[a]], &ds.Minority[min[b]])
		})
	}
	return idx
}

// MinorityLess is the canonical minority-record order: by organization
// name, then owner state, then share, then first ASN — a total order on
// any real dataset, independent of assembly order.
func MinorityLess(a, b *expand.MinorityRecord) bool {
	if a.OrgName != b.OrgName {
		return a.OrgName < b.OrgName
	}
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	if a.Share != b.Share {
		return a.Share < b.Share
	}
	var aa, ba world.ASN
	if len(a.ASNs) > 0 {
		aa = a.ASNs[0]
	}
	if len(b.ASNs) > 0 {
		ba = b.ASNs[0]
	}
	return aa < ba
}

// Dataset returns the underlying dataset (for the full Listing-1
// export endpoint).
func (idx *Index) Dataset() *expand.Dataset { return idx.ds }

// NumOrgs reports how many organizations the index covers.
func (idx *Index) NumOrgs() int { return len(idx.ds.Organizations) }

// NumASNs reports how many distinct majority-owned ASNs the index maps.
func (idx *Index) NumASNs() int {
	n := 0
	for _, e := range idx.asns {
		if e.h&orgIdxMask != 0 {
			n++
		}
	}
	return n
}

// NumMinority reports how many minority-holding records the index
// covers — with NumOrgs/NumASNs, the quick per-generation shape summary
// cmd/query and the snapshot tests print.
func (idx *Index) NumMinority() int { return len(idx.ds.Minority) }

// org materializes the i-th organization row.
func (idx *Index) org(i int) Org {
	return Org{Record: &idx.ds.Organizations[i], ASNs: idx.ds.ASNs[i].ASNs}
}

// ASN answers the per-ASN question: the owning organization (if
// majority state-owned) and any minority state holdings the ASN appears
// under. Both may be empty — then the ASN has no detected state
// ownership. The common-case cost is one binary search of the ASN
// table; the minority map is only consulted when the handle's minority
// bit is set.
func (idx *Index) ASN(a world.ASN) (org Org, minority []expand.MinorityRecord, owned bool) {
	h := idx.handle(a)
	if h == 0 {
		return Org{}, nil, false
	}
	if i := h & orgIdxMask; i != 0 {
		org = idx.org(int(i - 1))
		owned = true
	}
	if h&minorityFlag != 0 {
		for _, mi := range idx.asnMinority[a] {
			minority = append(minority, idx.ds.Minority[mi])
		}
	}
	return org, minority, owned
}

// handle returns ASN a's packed handle, 0 when the dataset never names
// it.
func (idx *Index) handle(a world.ASN) uint32 {
	t := idx.asns
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].asn < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(t) && t[lo].asn == a {
		return t[lo].h
	}
	return 0
}

// Org answers the per-organization question in O(1).
func (idx *Index) Org(id string) (Org, bool) {
	i, ok := idx.orgByID[id]
	if !ok {
		return Org{}, false
	}
	return idx.org(i), true
}

// Country lists the organizations operating in cc (majority ownership,
// domestic or foreign-subsidiary) and the minority state holdings
// registered there, in canonical order (organizations by OrgID,
// minority records by name/owner/share). cc is canonicalized to upper
// case.
func (idx *Index) Country(cc string) (orgs []Org, minority []expand.MinorityRecord) {
	cc = CanonicalCC(cc)
	for _, i := range idx.countryOrgs[cc] {
		orgs = append(orgs, idx.org(i))
	}
	for _, mi := range idx.countryMinority[cc] {
		minority = append(minority, idx.ds.Minority[mi])
	}
	return orgs, minority
}

// SearchHit is one fuzzy-name search result.
type SearchHit struct {
	Org   Org
	Score float64
}

// minSearchScore discards noise matches (a lone generic token scores
// well under containment but identifies nothing). Full-scan candidates
// carry no token-overlap evidence, so they must clear the higher
// minScanScore — Jaro–Winkler alone scores unrelated strings ~0.4.
const (
	minSearchScore = 0.35
	minScanScore   = 0.60
)

// Search finds the organizations whose names best match the query, using
// the pipeline's own name-similarity machinery (token-set + Jaro–Winkler
// over normalized forms). The token inverted index narrows scoring to
// organizations sharing at least one name token; when nothing shares a
// token (pure spelling variants) it falls back to scoring every
// organization. Results are sorted by descending score, ties broken by
// org ID, and truncated to limit (<=0 means 10).
func (idx *Index) Search(query string, limit int) []SearchHit {
	return idx.SearchName(nameutil.Prepare(query), limit)
}

// SearchName is Search for a query already prepared.
func (idx *Index) SearchName(q nameutil.Name, limit int) []SearchHit {
	if limit <= 0 {
		limit = 10
	}
	cands := map[int]bool{}
	for _, tok := range q.Tokens {
		for _, i := range idx.nameToken[tok] {
			cands[i] = true
		}
	}
	floor := minSearchScore
	if len(cands) == 0 {
		floor = minScanScore
		for i := range idx.ds.Organizations {
			cands[i] = true
		}
	}
	hits := make([]SearchHit, 0, len(cands))
	for i := range cands {
		score := q.Similarity(idx.names[i])
		if score < floor {
			continue
		}
		hits = append(hits, SearchHit{Org: idx.org(i), Score: score})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Org.Record.OrgID < hits[j].Org.Record.OrgID
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// CanonicalCC upper-cases a country code so that /v1/country/ao and
// cache keys agree with the dataset's ISO-3166 form.
func CanonicalCC(cc string) string { return strings.ToUpper(strings.TrimSpace(cc)) }
