package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"stateowned/internal/churn"
	"stateowned/internal/expand"
	"stateowned/internal/nameutil"
	"stateowned/internal/runner"
	"stateowned/internal/world"
)

// Options configures a Server.
type Options struct {
	// Health is the pipeline run's degradation report when the server is
	// built over a single static index (New); /readyz summarizes it.
	// Nil means "no health information" and /readyz always reports
	// ready. Generational sources (NewDynamic) carry health per View
	// and ignore this field.
	Health *runner.Health
	// CacheSize bounds the LRU response cache in entries (<= 0 disables
	// caching).
	CacheSize int
	// Clock drives latency accounting (nil = WallClock).
	Clock Clock

	// Admission enables load shedding on the /v1 endpoints: a bounded
	// in-flight limiter with a short deadline-aware wait queue; excess
	// load gets 503 + Retry-After instead of collapsing the process.
	// Nil disables admission control (every request is admitted). The
	// operational endpoints (/healthz, /readyz, /metrics) are never
	// limited — they must answer precisely when the server is drowning.
	Admission *AdmissionConfig
	// RequestTimeout is the per-request handler budget on the /v1
	// endpoints (0 = no deadlines). The expensive endpoints — /v1/diff
	// (a full churn audit) and /v1/search (token-set scoring) — run at
	// half budget: under pressure the costly work is the first to be
	// cut. An exceeded budget cancels the handler's context
	// (partial-work cancellation) and answers 504.
	RequestTimeout time.Duration
	// After is the timer the admission queue and request deadlines wait
	// on (nil = TimerAfter). Tests inject a hand-fired channel so
	// overload runs are deterministic and near-instant.
	After After

	// DrainTimeout bounds the graceful drain in Serve: on shutdown the
	// listener closes immediately and in-flight requests get this long
	// to finish (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
}

// Connection-lifecycle bounds for ServeHandler's http.Server. These
// bound the damage one misbehaving client can do to a connection: a
// client that trickles header bytes (slowloris) is cut off at
// DefaultReadHeaderTimeout, a stalled reader at DefaultWriteTimeout,
// an idle keep-alive at DefaultIdleTimeout.
const (
	// DefaultRequestTimeout is cmd/serve's default per-request handler
	// budget (the Options.RequestTimeout zero value still means "no
	// deadlines" for library users constructing a Server directly).
	DefaultRequestTimeout = 2 * time.Second
	// DefaultDrainTimeout bounds the graceful in-flight drain on
	// shutdown.
	DefaultDrainTimeout = 5 * time.Second
	// DefaultReadHeaderTimeout bounds how long a client may take to
	// send the request headers.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultWriteTimeout bounds the whole request+response exchange;
	// it comfortably exceeds any queue wait plus handler budget.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultIdleTimeout bounds idle keep-alive connections.
	DefaultIdleTimeout = 120 * time.Second
)

// searchLimit caps /v1/search results; ?limit= may only lower it.
const searchLimit = 10

// GenerationHeader is the response header naming the generation a /v1
// answer was served from. The hot-reload soak test keys its
// consistency check on it: a response's body must match a pinned
// ?gen=<header> replay byte for byte.
const GenerationHeader = "X-Generation"

// Server serves a generational dataset Source over HTTP. All state
// reached by handlers is either immutable once published (Views and
// their Indexes) or internally synchronized (source, cache, spine), so
// the server is safe under arbitrary request concurrency — including
// concurrent generation swaps: a request resolves its View once and
// answers entirely from it.
//
// Every route answers through the embedded containment Spine: the /v1
// data plane under admission control and per-endpoint deadlines, the
// operational plane (/healthz, /readyz, /metrics) unlimited. A fleet
// replica registers its control plane on the same spine.
type Server struct {
	*Spine
	src   Source
	cache *Cache

	drainTimeout time.Duration
}

// New assembles a Server over a single compiled Index: a static,
// generation-0-only source with no churn schedule. Use NewDynamic for
// a hot-reloading generational source (internal/snapshot).
func New(idx *Index, opts Options) *Server {
	return NewDynamic(&staticSource{view: View{
		Index:      idx,
		Health:     opts.Health,
		Provenance: Provenance{Origin: "static"},
	}}, opts)
}

// NewDynamic assembles a Server over a generational Source. The server
// itself holds no dataset state: every request resolves a View (the
// live generation, or a retained one pinned with ?gen=N) and answers
// from its immutable index.
func NewDynamic(src Source, opts Options) *Server {
	// Per-endpoint deadlines: the expensive endpoints get half the
	// budget — under pressure, cut the costly work first.
	budgets := map[string]time.Duration{}
	if b := opts.RequestTimeout; b > 0 {
		for _, e := range []string{"/v1/asn", "/v1/country", "/v1/org", "/v1/dataset",
			"/v1/graph/neighbors", "/v1/graph/upstreams", "/v1/graph/cone", "/v1/hijacks", "other"} {
			budgets[e] = b
		}
		for _, e := range []string{"/v1/search", "/v1/diff", "/v1/graph/path"} {
			budgets[e] = b / 2
		}
	}
	s := &Server{
		Spine:        NewSpine(opts.Clock, opts.Admission, opts.After, budgets),
		src:          src,
		cache:        NewCache(opts.CacheSize),
		drainTimeout: opts.DrainTimeout,
	}
	for pattern, fn := range map[string]viewFunc{
		"GET /v1/asn/{asn}":             s.handleASN,
		"GET /v1/country/{cc}":          s.handleCountry,
		"GET /v1/org/{id}":              s.handleOrg,
		"GET /v1/search":                s.handleSearch,
		"GET /v1/dataset":               s.handleDataset,
		"GET /v1/graph/neighbors/{asn}": s.handleGraphNeighbors,
		"GET /v1/graph/upstreams/{asn}": s.handleGraphUpstreams,
		"GET /v1/graph/cone/{asn}":      s.handleGraphCone,
		"GET /v1/graph/path":            s.handleGraphPath,
		"GET /v1/hijacks":               s.handleHijacks,
	} {
		rp := s.viewReplay(pattern, fn)
		if s.cache == nil {
			// Nothing to replay: the worker resolves the view too.
			s.Handle(pattern, true, rp.answer)
			continue
		}
		s.handleReplay(pattern, rp)
	}
	s.Handle("GET /v1/diff", true, s.handleDiff)
	s.Handle("GET /readyz", false, s.handleReadyz)
	s.Handle("GET /metrics", false, s.handleMetrics)
	return s
}

// CacheStats exposes the response-cache accounting.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// InvalidateGeneration purges every cached response that was answered
// from the given generation. The snapshot store calls this when a
// generation leaves the retention ring: entries of still-retained
// generations remain valid (responses are pure functions of
// (generation, canonical request)), so only evicted generations need
// purging — and a stale answer cannot survive a swap in any case,
// because unpinned requests resolve their generation before the cache
// is consulted.
func (s *Server) InvalidateGeneration(gen int) { s.cache.PurgeGeneration(gen) }

// Serve accepts connections on ln until ctx is canceled, then shuts the
// server down gracefully: the listener stops accepting immediately and
// in-flight requests get the drain timeout to finish. It returns nil on
// a clean context-driven shutdown (including one where the drain
// deadline expired and stragglers were cut off — that is the contract,
// not an error). The http.Server runs with read-header, write and idle
// timeouts so a slowloris client cannot pin a connection forever.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return ServeHandler(ctx, ln, s, LifecycleOptions{DrainTimeout: s.drainTimeout})
}

// LifecycleOptions bound an http.Server's shutdown for ServeHandler; a
// zero DrainTimeout selects DefaultDrainTimeout.
type LifecycleOptions struct {
	DrainTimeout time.Duration
}

// ServeHandler runs any handler with this package's hardened server
// lifecycle — slowloris-bounded connections, context-driven graceful
// drain, force-close of stragglers past the drain budget. The fleet's
// shard and router servers ride the same lifecycle as the
// single-process server.
func ServeHandler(ctx context.Context, ln net.Listener, h http.Handler, opts LifecycleOptions) error {
	drain := opts.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		WriteTimeout:      DefaultWriteTimeout,
		IdleTimeout:       DefaultIdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// The drain deadline expired: force-close the stragglers. Still
		// a clean shutdown from the operator's point of view.
		hs.Close()
	}
	<-errc // always http.ErrServerClosed after Shutdown/Close
	return nil
}

// query parses r's query string once for all its readers. It returns
// nil, without allocating, when there is none; a nil url.Values reads
// as empty.
func query(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	q, _ := url.ParseQuery(r.URL.RawQuery)
	return q
}

// resolveView resolves the generation a request with query q
// addresses: the live generation by default, or the retained
// generation ?gen=N pins. On failure the returned view is nil and the
// response distinguishes a malformed number (400), a generation never
// built (404) and one evicted from the retention ring (410).
func (s *Server) resolveView(q url.Values) (*View, Response) {
	raw, ok := q["gen"]
	if !ok {
		return s.src.Current(), Response{}
	}
	return s.lookupGen(raw[0], "gen")
}

// lookupGen parses and resolves one generation query parameter.
func (s *Server) lookupGen(raw, param string) (*View, Response) {
	n, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || n < 0 {
		return nil, ErrorResponse(http.StatusBadRequest,
			fmt.Sprintf("invalid ?%s=%q: want a non-negative generation number", param, raw))
	}
	v, st := s.src.Generation(int(n))
	switch st {
	case GenOK:
		return v, Response{}
	case GenEvicted:
		return nil, ErrorResponse(http.StatusGone,
			fmt.Sprintf("generation %d has been evicted from the retention ring", n))
	default:
		return nil, ErrorResponse(http.StatusNotFound, fmt.Sprintf("unknown generation %d", n))
	}
}

// viewFunc answers one /v1 read from the view it addresses; q is the
// request's query, parsed once (nil when it has none).
type viewFunc func(v *View, r *http.Request, q url.Values) Response

// viewReplay is a /v1 route's replay stage: it resolves the view, builds
// the cache key and answers a hit. A miss hands the worker the handler
// call and the fill, with the view, the key and the parsed query
// already made. Every /v1 answer other than a 400 is a pure function of
// the (generation, route, canonicalized request) triple — each
// generation's Index is immutable — so hits and misses (404s) alike are
// cacheable. A 400 is not: its body quotes the raw input, and
// canonicalization maps distinct spellings ("00" and "0", "usa" and
// "USA") to one key, so a cached 400 would answer one request with
// another's text. The generation lands in the cache key (a swap can
// therefore never replay a stale generation's answer) and tags the
// entry so eviction can purge it. Responses produced after the
// request's context was canceled (a deadline 504, or partial work cut
// off mid-handler) are never cached either: they are functions of
// timing, not of the (generation, request) pair.
func (s *Server) viewReplay(route string, fn viewFunc) replay {
	return func(r *http.Request) (Response, func(*http.Request) Response) {
		q := query(r)
		view, errResp := s.resolveView(q)
		if view == nil {
			return errResp, nil
		}
		key := cacheKey(view.Gen, route, r, q)
		if hit, ok := s.cache.Get(key); ok {
			return hit, nil
		}
		return Response{}, func(r *http.Request) Response {
			resp := fn(view, r, q)
			resp.Gen = strconv.Itoa(view.Gen)
			if resp.Status != http.StatusBadRequest && r.Context().Err() == nil {
				s.cache.Put(key, view.Gen, resp)
			}
			return resp
		}
	}
}

// cacheKey is a request's cache key: its generation, its route and its
// canonical form, in one allocation.
func cacheKey(gen int, route string, r *http.Request, q url.Values) string {
	var buf [128]byte
	b := strconv.AppendInt(append(buf[:0], 'g'), int64(gen), 10)
	b = append(append(append(b, 0), route...), 0)
	return string(appendCanonical(b, r, q))
}

// appendCanonical appends a request's canonical lookup form, so that
// equivalent requests share one cache entry: country codes upper-cased,
// ASNs numerically normalized (leading zeros dropped), search names
// name-normalized, the effective search limit spelled out. q is r's
// parsed query.
func appendCanonical(b []byte, r *http.Request, q url.Values) []byte {
	if cc := r.PathValue("cc"); cc != "" {
		return append(append(b, "cc:"...), CanonicalCC(cc)...)
	}
	if asn := r.PathValue("asn"); asn != "" {
		b = appendASNParam(append(b, "asn:"...), asn)
		// The neighbors endpoint's class filter is part of its canonical
		// form (case-insensitive).
		if strings.HasPrefix(r.URL.Path, "/v1/graph/neighbors/") {
			b = append(append(b, "\x00class:"...), strings.ToLower(q.Get("class"))...)
		}
		return b
	}
	if id := r.PathValue("id"); id != "" {
		return append(append(b, "id:"...), id...)
	}
	switch r.URL.Path {
	case "/v1/search":
		b = append(append(b, "name:"...), nameutil.Normalize(q.Get("name"))...)
		return append(append(b, "\x00limit:"...), q.Get("limit")...)
	case "/v1/graph/path":
		b = appendASNParam(append(b, "from:"...), q.Get("from"))
		return appendASNParam(append(b, "\x00to:"...), q.Get("to"))
	case "/v1/hijacks":
		b = appendASNParam(append(b, "victim:"...), q.Get("victim"))
		b = append(append(b, "\x00cc:"...), CanonicalCC(q.Get("cc"))...)
		return append(append(b, "\x00xb:"...), canonBoolParam(q.Get("cross_border"))...)
	}
	return append(b, r.URL.Path...)
}

// --- /v1 handlers ----------------------------------------------------------

// ASNResponse answers "is this ASN state-owned, by whom, on what
// evidence".
type ASNResponse struct {
	ASN world.ASN `json:"asn"`
	// Status is "state-owned", "minority" or "none".
	Status       string                  `json:"status"`
	Organization *expand.OrgRecord       `json:"organization,omitempty"`
	SiblingASNs  []world.ASN             `json:"sibling_asns,omitempty"`
	Minority     []expand.MinorityRecord `json:"minority,omitempty"`
}

func (s *Server) handleASN(v *View, r *http.Request, _ url.Values) Response {
	raw := r.PathValue("asn")
	n, err := strconv.ParseUint(raw, 10, 32)
	if err != nil || n == 0 {
		return ErrorResponse(http.StatusBadRequest, fmt.Sprintf("invalid ASN %q", raw))
	}
	a := world.ASN(n)
	org, minority, owned := v.Index.ASN(a)
	body := ASNResponse{ASN: a, Status: "none", Minority: minority}
	status := http.StatusNotFound
	switch {
	case owned:
		body.Status = "state-owned"
		body.Organization = org.Record
		body.SiblingASNs = org.ASNs
		status = http.StatusOK
	case len(minority) > 0:
		body.Status = "minority"
		status = http.StatusOK
	}
	return JSONResponse(status, body)
}

// OrgResponse is one organization with its ASNs. The membership list
// renders through ASNList — the same canonical sorted-ASN form the
// graph cone endpoint uses — so the record plane and the graph plane
// cannot drift.
type OrgResponse struct {
	Organization *expand.OrgRecord `json:"organization"`
	ASNs         ASNList           `json:"asn"`
}

func (s *Server) handleOrg(v *View, r *http.Request, _ url.Values) Response {
	id := r.PathValue("id")
	org, ok := v.Index.Org(id)
	if !ok {
		return ErrorResponse(http.StatusNotFound, fmt.Sprintf("unknown organization %q", id))
	}
	return JSONResponse(http.StatusOK, OrgResponse{Organization: org.Record, ASNs: ASNList(org.ASNs)})
}

// CountryResponse lists a country's state-owned operators, including
// minority holdings.
type CountryResponse struct {
	CC            string                  `json:"cc"`
	Organizations []OrgResponse           `json:"organizations"`
	Minority      []expand.MinorityRecord `json:"minority,omitempty"`
}

func (s *Server) handleCountry(v *View, r *http.Request, _ url.Values) Response {
	cc := CanonicalCC(r.PathValue("cc"))
	if len(cc) != 2 || cc[0] < 'A' || cc[0] > 'Z' || cc[1] < 'A' || cc[1] > 'Z' {
		return ErrorResponse(http.StatusBadRequest, fmt.Sprintf("invalid country code %q", r.PathValue("cc")))
	}
	orgs, minority := v.Index.Country(cc)
	body := CountryResponse{CC: cc, Organizations: []OrgResponse{}, Minority: minority}
	for _, o := range orgs {
		body.Organizations = append(body.Organizations, OrgResponse{Organization: o.Record, ASNs: ASNList(o.ASNs)})
	}
	return JSONResponse(http.StatusOK, body)
}

// SearchResponse is the fuzzy-name search result list. Query echoes the
// normalized form the results were computed from.
type SearchResponse struct {
	Query string            `json:"query"`
	Hits  []SearchHitRecord `json:"hits"`
}

// SearchHitRecord is one scored search hit.
type SearchHitRecord struct {
	Score        float64           `json:"score"`
	Organization *expand.OrgRecord `json:"organization"`
	ASNs         []world.ASN       `json:"asn"`
}

func (s *Server) handleSearch(v *View, _ *http.Request, q url.Values) Response {
	name := nameutil.Prepare(q.Get("name"))
	if name.Norm == "" {
		return ErrorResponse(http.StatusBadRequest, "missing or empty ?name= query")
	}
	limit := searchLimit
	if rawLimit := q.Get("limit"); rawLimit != "" {
		n, err := strconv.Atoi(rawLimit)
		if err != nil || n <= 0 {
			return ErrorResponse(http.StatusBadRequest, fmt.Sprintf("invalid ?limit=%s", rawLimit))
		}
		if n < limit {
			limit = n
		}
	}
	body := SearchResponse{Query: name.Norm, Hits: []SearchHitRecord{}}
	for _, h := range v.Index.SearchName(name, limit) {
		body.Hits = append(body.Hits, SearchHitRecord{
			Score: h.Score, Organization: h.Org.Record, ASNs: h.Org.ASNs,
		})
	}
	return JSONResponse(http.StatusOK, body)
}

// DatasetResponse wraps the Listing-1 export with the generation it
// came from and the build's provenance.
type DatasetResponse struct {
	Generation int             `json:"generation"`
	Provenance Provenance      `json:"provenance"`
	Dataset    json.RawMessage `json:"dataset"`
}

func (s *Server) handleDataset(v *View, _ *http.Request, _ url.Values) Response {
	var buf bytes.Buffer
	if err := v.Index.Dataset().Export(&buf); err != nil {
		return ErrorResponse(http.StatusInternalServerError, "exporting dataset")
	}
	return JSONResponse(http.StatusOK, DatasetResponse{
		Generation: v.Gen, Provenance: v.Provenance, Dataset: buf.Bytes(),
	})
}

// DiffResponse is the ownership-churn audit between two retained
// generations: Audit is exactly churn.RunAudit of `from`'s published
// dataset against `to`'s ground-truth world — what a maintainer of the
// paper's dataset would have to edit to bring the old list up to date.
type DiffResponse struct {
	From  int         `json:"from"`
	To    int         `json:"to"`
	Audit churn.Audit `json:"audit"`
}

func (s *Server) handleDiff(r *http.Request) Response {
	q := r.URL.Query()
	rawFrom, okFrom := q["from"]
	rawTo, okTo := q["to"]
	if !okFrom || !okTo {
		return ErrorResponse(http.StatusBadRequest, "need both ?from= and ?to= generation numbers")
	}
	from, errResp := s.lookupGen(rawFrom[0], "from")
	if from == nil {
		return errResp
	}
	to, errResp := s.lookupGen(rawTo[0], "to")
	if to == nil {
		return errResp
	}
	// The audit is the expensive part; if the deadline middleware already
	// canceled this request, skip it — the answer would be discarded.
	if r.Context().Err() != nil {
		return ErrorResponse(http.StatusGatewayTimeout, "request canceled before the audit ran")
	}
	audit, ok := s.src.Diff(from, to)
	if !ok {
		return ErrorResponse(http.StatusNotFound, "diff unavailable: this server's source keeps no ground truth")
	}
	return JSONResponse(http.StatusOK, DiffResponse{From: from.Gen, To: to.Gen, Audit: *audit})
}

// --- readiness and metrics -------------------------------------------------

// SourceStatus is one pipeline source's row of the readiness report.
type SourceStatus struct {
	Name        string `json:"name"`
	Status      string `json:"status"`
	Dropped     int    `json:"dropped,omitempty"`
	Corrupted   int    `json:"corrupted,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// StageStatus is one degraded pipeline stage.
type StageStatus struct {
	Name string `json:"name"`
	Note string `json:"note"`
}

// ReadyResponse summarizes the live generation's runner.Health: ready
// means no source went unavailable in the build that produced it
// (degraded-but-present sources still serve, they are just listed).
// The source's ReloadStatus rides along verbatim: during a hot reload
// the old generation keeps serving, so readiness stays green, and a
// degraded reload gate (quarantined rebuilds, serving last-known-good)
// is still ready (200) — the dataset has stopped advancing and an
// operator should look.
type ReadyResponse struct {
	Ready      bool `json:"ready"`
	Generation int  `json:"generation"`
	ReloadStatus
	ChaosSeverity  float64        `json:"chaos_severity"`
	Sources        []SourceStatus `json:"sources,omitempty"`
	DegradedSrc    []string       `json:"degraded_sources,omitempty"`
	Unavailable    []string       `json:"unavailable_sources,omitempty"`
	DegradedStages []StageStatus  `json:"degraded_stages,omitempty"`
}

func (s *Server) handleReadyz(*http.Request) Response {
	v := s.src.Current()
	body := ReadyResponse{Generation: v.Gen, ReloadStatus: s.src.ReloadStatus()}
	if v.Health == nil {
		body.Ready = true
		return JSONResponse(http.StatusOK, body)
	}
	h := v.Health
	body.ChaosSeverity = h.Severity
	body.DegradedSrc = h.DegradedSources()
	body.Unavailable = h.UnavailableSources()
	for _, sh := range h.Sources() {
		body.Sources = append(body.Sources, SourceStatus{
			Name: sh.Name, Status: sh.Status.String(),
			Dropped: sh.Dropped, Corrupted: sh.Corrupted, Quarantined: sh.Quarantined,
			Retries: sh.Retries, LastError: sh.LastError,
		})
	}
	for _, st := range h.DegradedStages() {
		body.DegradedStages = append(body.DegradedStages, StageStatus{Name: st.Name, Note: st.Note})
	}
	body.Ready = h.Ready()
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	return JSONResponse(status, body)
}

func (s *Server) handleMetrics(*http.Request) Response {
	v := s.src.Current()
	body := Snapshot{
		RequestStats: s.Metrics().Snapshot(),
		Cache:        s.cache.Stats(),
		Generation:   v.Gen,
		ReloadStatus: s.src.ReloadStatus(),
	}
	if s.limiter != nil {
		st := s.limiter.Stats()
		body.Admission = &st
	}
	if h := v.Health; h != nil {
		body.BuildWorkers = h.Workers
		for _, nt := range h.Timings {
			body.BuildNodes = append(body.BuildNodes, BuildNodeTiming{
				Node:   nt.Node,
				WallMS: float64(nt.Wall) / float64(time.Millisecond),
				Reused: nt.Reused,
			})
		}
	}
	return JSONResponse(http.StatusOK, body)
}
