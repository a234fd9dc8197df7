package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"stateowned/internal/graph"
	"stateowned/internal/world"
)

// ASNList is the canonical wire rendering of a set of ASNs: ascending,
// deduplicated, and never null (an empty set renders as []). Every
// endpoint that answers with an ASN set — /v1/org's membership and the
// /v1/graph/* adjacency, cone and sibling sets — marshals through this
// one type, so the two planes cannot drift in ordering or null
// handling.
type ASNList []world.ASN

// MarshalJSON renders the set sorted ascending and deduplicated. The
// encoder re-indents the compact form, so a list nested in an indented
// response body is byte-identical to a plain []world.ASN rendering of
// the same sorted slice.
func (l ASNList) MarshalJSON() ([]byte, error) {
	s := append([]world.ASN(nil), l...)
	world.SortASNs(s)
	out := s[:0]
	for i, a := range s {
		if i == 0 || a != s[i-1] {
			out = append(out, a)
		}
	}
	buf := make([]byte, 0, 2+11*len(out))
	buf = append(buf, '[')
	for i, a := range out {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(a), 10)
	}
	return append(buf, ']'), nil
}

// --- /v1/graph handlers ------------------------------------------------------

// GraphNeighborsResponse is the full four-class adjacency of one AS.
type GraphNeighborsResponse struct {
	ASN       world.ASN `json:"asn"`
	Providers ASNList   `json:"providers"`
	Customers ASNList   `json:"customers"`
	Peers     ASNList   `json:"peers"`
	Siblings  ASNList   `json:"siblings"`
}

// GraphNeighborClassResponse is one relationship class of one AS (the
// ?class= filtered form).
type GraphNeighborClassResponse struct {
	ASN       world.ASN `json:"asn"`
	Class     string    `json:"class"`
	Count     int       `json:"count"`
	Neighbors ASNList   `json:"neighbors"`
}

// GraphUpstreamsResponse ranks the transits the observed monitor paths
// toward an AS depend on, hegemony-style: each upstream's score is the
// fraction of observed paths that traverse it.
type GraphUpstreamsResponse struct {
	ASN           world.ASN          `json:"asn"`
	PathsObserved int                `json:"paths_observed"`
	Monitors      int                `json:"monitors"`
	Upstreams     []graph.Dependency `json:"upstreams"`
}

// GraphConeResponse is an AS's transitive customer cone (ASRank
// semantics: self included).
type GraphConeResponse struct {
	ASN     world.ASN `json:"asn"`
	Size    int       `json:"size"`
	Members ASNList   `json:"members"`
}

// GraphPathResponse is the valley-free shortest-path answer. Path is an
// ordered hop sequence (from first, to last), not a set — it does not
// render through ASNList.
type GraphPathResponse struct {
	From  world.ASN   `json:"from"`
	To    world.ASN   `json:"to"`
	Found bool        `json:"found"`
	Hops  int         `json:"hops"`
	Path  []world.ASN `json:"path,omitempty"`
}

// graphFor extracts the generation's compiled graph, materializing the
// canonical 404 for sources that carry none (static index-only
// sources).
func graphFor(v *View) (*graph.Graph, Response) {
	if v.Graph == nil {
		return nil, ErrorResponse(http.StatusNotFound,
			"graph index unavailable: this source serves no topology graph")
	}
	return v.Graph, Response{}
}

// parseGraphASN parses an ASN path or query parameter for the graph
// endpoints. Unlike /v1/asn (whose 404 carries a full ASNResponse
// body), every graph error is the unified envelope.
func parseGraphASN(raw string) (world.ASN, Response) {
	n, err := strconv.ParseUint(raw, 10, 32)
	if err != nil || n == 0 {
		return 0, ErrorResponse(http.StatusBadRequest, fmt.Sprintf("invalid ASN %q", raw))
	}
	return world.ASN(n), Response{}
}

// inactiveASN is the graph plane's unknown-AS answer: the ASN parses
// but is not in this generation's topology snapshot.
func inactiveASN(a world.ASN) Response {
	return ErrorResponse(http.StatusNotFound,
		fmt.Sprintf("AS%d is not in this generation's topology", a))
}

func (s *Server) handleGraphNeighbors(v *View, r *http.Request, q url.Values) Response {
	g, errResp := graphFor(v)
	if g == nil {
		return errResp
	}
	a, errResp := parseGraphASN(r.PathValue("asn"))
	if a == 0 {
		return errResp
	}
	if !g.Active(a) {
		return inactiveASN(a)
	}
	if raw := q.Get("class"); raw != "" {
		c, ok := graph.ParseClass(raw)
		if !ok {
			return ErrorResponse(http.StatusBadRequest,
				fmt.Sprintf("unknown relationship class %q (want provider, customer, peer or sibling)", raw))
		}
		ns, _ := g.Neighbors(a, c)
		return JSONResponse(http.StatusOK, GraphNeighborClassResponse{
			ASN: a, Class: c.String(), Count: len(ns), Neighbors: ASNList(ns),
		})
	}
	prov, _ := g.Neighbors(a, graph.Provider)
	cust, _ := g.Neighbors(a, graph.Customer)
	peer, _ := g.Neighbors(a, graph.Peer)
	sibs, _ := g.Neighbors(a, graph.Sibling)
	return JSONResponse(http.StatusOK, GraphNeighborsResponse{
		ASN: a, Providers: ASNList(prov), Customers: ASNList(cust),
		Peers: ASNList(peer), Siblings: ASNList(sibs),
	})
}

func (s *Server) handleGraphUpstreams(v *View, r *http.Request, _ url.Values) Response {
	g, errResp := graphFor(v)
	if g == nil {
		return errResp
	}
	a, errResp := parseGraphASN(r.PathValue("asn"))
	if a == 0 {
		return errResp
	}
	deps, ok := g.Upstreams(a)
	if !ok {
		return inactiveASN(a)
	}
	if deps == nil {
		deps = []graph.Dependency{}
	}
	return JSONResponse(http.StatusOK, GraphUpstreamsResponse{
		ASN: a, PathsObserved: g.PathsObserved(a), Monitors: g.NumMonitors(), Upstreams: deps,
	})
}

func (s *Server) handleGraphCone(v *View, r *http.Request, _ url.Values) Response {
	g, errResp := graphFor(v)
	if g == nil {
		return errResp
	}
	a, errResp := parseGraphASN(r.PathValue("asn"))
	if a == 0 {
		return errResp
	}
	if !g.Active(a) {
		return inactiveASN(a)
	}
	cone := g.Cone(a)
	return JSONResponse(http.StatusOK, GraphConeResponse{
		ASN: a, Size: len(cone), Members: ASNList(cone),
	})
}

func (s *Server) handleGraphPath(v *View, _ *http.Request, q url.Values) Response {
	g, errResp := graphFor(v)
	if g == nil {
		return errResp
	}
	rawFrom, rawTo := q.Get("from"), q.Get("to")
	if rawFrom == "" || rawTo == "" {
		return ErrorResponse(http.StatusBadRequest, "need both ?from= and ?to= ASNs")
	}
	from, errResp := parseGraphASN(rawFrom)
	if from == 0 {
		return errResp
	}
	to, errResp := parseGraphASN(rawTo)
	if to == 0 {
		return errResp
	}
	if !g.Active(from) {
		return inactiveASN(from)
	}
	if !g.Active(to) {
		return inactiveASN(to)
	}
	p := g.Path(from, to)
	body := GraphPathResponse{From: from, To: to, Found: len(p) > 0}
	if body.Found {
		body.Hops = len(p) - 1
		body.Path = p
	}
	return JSONResponse(http.StatusOK, body)
}

// appendASNParam appends an ASN value's cache-key form: numerically
// normalized (leading zeros dropped), while malformed values stay raw so
// distinct garbage stays distinct.
func appendASNParam(b []byte, raw string) []byte {
	if n, err := strconv.ParseUint(raw, 10, 32); err == nil {
		return strconv.AppendUint(b, n, 10)
	}
	return append(append(b, "raw:"...), raw...)
}
