package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
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
	// SearchLimit caps /v1/search results (<= 0 = 10).
	SearchLimit int

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
	// ReadHeaderTimeout, WriteTimeout and IdleTimeout are applied to the
	// http.Server in Serve (0 selects the package defaults); unset
	// they'd let one slowloris client pin a connection forever.
	ReadHeaderTimeout time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

// Connection-lifecycle defaults for Serve's http.Server. These bound
// the damage one misbehaving client can do to a connection: a client
// that trickles header bytes (slowloris) is cut off at
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

// GenerationHeader is the response header naming the generation a /v1
// answer was served from. The hot-reload soak test keys its
// consistency check on it: a response's body must match a pinned
// ?gen=<header> replay byte for byte.
const GenerationHeader = "X-Generation"

// Server serves a generational dataset Source over HTTP. All state
// reached by handlers is either immutable once published (Views and
// their Indexes) or internally synchronized (source, cache, metrics,
// limiter), so the server is safe under arbitrary request concurrency —
// including concurrent generation swaps: a request resolves its View
// once and answers entirely from it.
//
// Every request flows through the containment spine (dispatch):
// admission control (503 + Retry-After under overload), a per-endpoint
// deadline (504 with context cancellation), and per-request panic
// isolation (500 + panics_total instead of a dead process). Handlers
// therefore never touch the ResponseWriter — they return a materialized
// response, and only the spine writes, so a late handler can never race
// a timeout answer on the wire.
type Server struct {
	src     Source
	cache   *Cache
	metrics *Metrics
	mux     *http.ServeMux
	limit   int

	limiter *Limiter
	after   After
	// budgets maps endpoint name to its handler deadline (0 = none).
	budgets map[string]time.Duration

	drainTimeout      time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
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
	s := &Server{
		src:               src,
		cache:             NewCache(opts.CacheSize),
		metrics:           NewMetrics(opts.Clock),
		mux:               http.NewServeMux(),
		limit:             opts.SearchLimit,
		after:             opts.After,
		drainTimeout:      opts.DrainTimeout,
		readHeaderTimeout: opts.ReadHeaderTimeout,
		writeTimeout:      opts.WriteTimeout,
		idleTimeout:       opts.IdleTimeout,
	}
	if s.limit <= 0 {
		s.limit = 10
	}
	if s.after == nil {
		s.after = TimerAfter
	}
	if opts.Admission != nil {
		s.limiter = NewLimiter(*opts.Admission, s.after)
	}
	// Per-endpoint deadlines: the expensive endpoints get half the
	// budget — under pressure, cut the costly work first.
	s.budgets = map[string]time.Duration{}
	if b := opts.RequestTimeout; b > 0 {
		tight := b / 2
		for _, e := range []string{"/v1/asn", "/v1/country", "/v1/org", "/v1/dataset",
			"/v1/graph/neighbors", "/v1/graph/upstreams", "/v1/graph/cone", "/v1/hijacks", "other"} {
			s.budgets[e] = b
		}
		for _, e := range []string{"/v1/search", "/v1/diff", "/v1/graph/path"} {
			s.budgets[e] = tight
		}
	}
	// The /v1 data plane runs load-controlled (admission + deadlines);
	// the operational plane does not — /healthz, /readyz and /metrics
	// must answer precisely when the server is shedding.
	s.mux.HandleFunc("GET /v1/asn/{asn}", s.handle("/v1/asn", true, s.viewHandler("/v1/asn", s.handleASN)))
	s.mux.HandleFunc("GET /v1/country/{cc}", s.handle("/v1/country", true, s.viewHandler("/v1/country", s.handleCountry)))
	s.mux.HandleFunc("GET /v1/org/{id}", s.handle("/v1/org", true, s.viewHandler("/v1/org", s.handleOrg)))
	s.mux.HandleFunc("GET /v1/search", s.handle("/v1/search", true, s.viewHandler("/v1/search", s.handleSearch)))
	s.mux.HandleFunc("GET /v1/dataset", s.handle("/v1/dataset", true, s.viewHandler("/v1/dataset", s.handleDataset)))
	s.mux.HandleFunc("GET /v1/graph/neighbors/{asn}", s.handle("/v1/graph/neighbors", true, s.viewHandler("/v1/graph/neighbors", s.handleGraphNeighbors)))
	s.mux.HandleFunc("GET /v1/graph/upstreams/{asn}", s.handle("/v1/graph/upstreams", true, s.viewHandler("/v1/graph/upstreams", s.handleGraphUpstreams)))
	s.mux.HandleFunc("GET /v1/graph/cone/{asn}", s.handle("/v1/graph/cone", true, s.viewHandler("/v1/graph/cone", s.handleGraphCone)))
	s.mux.HandleFunc("GET /v1/graph/path", s.handle("/v1/graph/path", true, s.viewHandler("/v1/graph/path", s.handleGraphPath)))
	s.mux.HandleFunc("GET /v1/hijacks", s.handle("/v1/hijacks", true, s.viewHandler("/v1/hijacks", s.handleHijacks)))
	s.mux.HandleFunc("GET /v1/diff", s.handle("/v1/diff", true, s.handleDiff))
	s.mux.HandleFunc("GET /healthz", s.handle("/healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.handle("/readyz", false, s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.handle("/metrics", false, s.handleMetrics))
	s.mux.HandleFunc("/", s.handle("other", true, func(*http.Request) response {
		return errResponse(http.StatusNotFound, "unknown endpoint")
	}))
	return s
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the registry (snapshots drive /metrics and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats exposes the response-cache accounting.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// AdmissionStats exposes the limiter accounting (zeroes when admission
// control is off).
func (s *Server) AdmissionStats() AdmissionStats { return s.limiter.Stats() }

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
	return ServeHandler(ctx, ln, s, LifecycleOptions{
		DrainTimeout:      s.drainTimeout,
		ReadHeaderTimeout: s.readHeaderTimeout,
		WriteTimeout:      s.writeTimeout,
		IdleTimeout:       s.idleTimeout,
	})
}

// LifecycleOptions bound an http.Server's connection lifecycle for
// ServeHandler; zero fields select the package defaults.
type LifecycleOptions struct {
	DrainTimeout      time.Duration
	ReadHeaderTimeout time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

// ServeHandler runs any handler with this package's hardened server
// lifecycle — slowloris-bounded connections, context-driven graceful
// drain, force-close of stragglers past the drain budget. The fleet's
// shard and router servers ride the same lifecycle as the
// single-process server.
func ServeHandler(ctx context.Context, ln net.Listener, h http.Handler, opts LifecycleOptions) error {
	drain := orDefault(opts.DrainTimeout, DefaultDrainTimeout)
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: orDefault(opts.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		WriteTimeout:      orDefault(opts.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       orDefault(opts.IdleTimeout, DefaultIdleTimeout),
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

// orDefault substitutes def for an unset duration.
func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// response is a handler's materialized result, ready to write or cache.
type response struct {
	status      int
	contentType string
	body        []byte
	// genHeader, when non-empty, emits the X-Generation header.
	genHeader string
	// retryAfterSec, when > 0, emits a Retry-After header (shed
	// responses).
	retryAfterSec int
}

// jsonResponse marshals v as an indented JSON response.
func jsonResponse(status int, v any) response {
	body, err := JSONBody(v)
	if err != nil {
		return errResponse(http.StatusInternalServerError, "encoding response")
	}
	return response{status: status, contentType: "application/json", body: body}
}

// errResponse materializes the canonical ErrorBody envelope — the one
// helper every /v1 error path (400/404/410/500/503/504) goes through.
func errResponse(status int, msg string) response {
	return jsonResponse(status, ErrorBody{Error: msg, Status: status})
}

// resolveView resolves the generation a request addresses: the live
// generation by default, or the retained generation ?gen=N pins. On
// failure the returned view is nil and the response distinguishes a
// malformed number (400), a generation never built (404) and one
// evicted from the retention ring (410).
func (s *Server) resolveView(r *http.Request) (*View, response) {
	raw, ok := r.URL.Query()["gen"]
	if !ok {
		return s.src.Current(), response{}
	}
	return s.lookupGen(raw[0], "gen")
}

// lookupGen parses and resolves one generation query parameter.
func (s *Server) lookupGen(raw, param string) (*View, response) {
	n, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || n < 0 {
		return nil, errResponse(http.StatusBadRequest,
			fmt.Sprintf("invalid ?%s=%q: want a non-negative generation number", param, raw))
	}
	v, st := s.src.Generation(int(n))
	switch st {
	case GenOK:
		return v, response{}
	case GenEvicted:
		return nil, errResponse(http.StatusGone,
			fmt.Sprintf("generation %d has been evicted from the retention ring", n))
	default:
		return nil, errResponse(http.StatusNotFound, fmt.Sprintf("unknown generation %d", n))
	}
}

// handle is the containment spine every route runs through: metrics
// accounting around a dispatch that applies (for load-controlled
// endpoints) admission control and the endpoint's deadline, and (for
// every endpoint) per-request panic isolation. The spine is the only
// code that touches the ResponseWriter, so an abandoned handler — one
// that outlived its deadline — can never race the 504 on the wire.
func (s *Server) handle(endpoint string, loadControlled bool, fn func(*http.Request) response) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.metrics.Begin()
		resp := s.dispatch(endpoint, loadControlled, fn, r)
		s.write(w, resp)
		s.metrics.End(endpoint, resp.status, start)
	}
}

// dispatch applies the overload policy to one request. The decision
// ladder: (1) admission — no free slot and no queue room, or the queue
// wait expires → 503 + Retry-After, the request never runs; (2)
// deadline — the handler runs but overshoots its endpoint budget → its
// context is canceled (partial-work cancellation) and the answer is
// 504; (3) the handler's materialized response. An admitted slot is
// held until the handler actually finishes — even past its deadline —
// so abandoned-but-running work still counts against MaxInFlight and a
// flood of timeouts cannot stack unbounded concurrency.
func (s *Server) dispatch(endpoint string, loadControlled bool, fn func(*http.Request) response, r *http.Request) response {
	release := func() {}
	if loadControlled && s.limiter != nil {
		rel, verdict := s.limiter.Acquire(r.Context().Done())
		if verdict != Admitted {
			s.metrics.Shed(endpoint)
			resp := errResponse(http.StatusServiceUnavailable, "overloaded: admission queue full or wait expired; retry later")
			resp.retryAfterSec = s.limiter.RetryAfterSeconds()
			return resp
		}
		release = rel
	}
	budget := s.budgets[endpoint]
	if budget <= 0 {
		defer release()
		return s.invoke(endpoint, fn, r)
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	done := make(chan response, 1)
	go func() {
		defer release() // the slot is freed when the work truly ends
		done <- s.invoke(endpoint, fn, r.WithContext(ctx))
	}()
	expired, stop := s.after(budget)
	defer stop()
	select {
	case resp := <-done:
		return resp
	case <-expired:
		cancel() // stop context-aware partial work
		s.metrics.DeadlineExceeded(endpoint)
		return errResponse(http.StatusGatewayTimeout,
			fmt.Sprintf("request exceeded its %s budget", budget))
	}
}

// invoke runs one handler behind the panic barrier: a panicking handler
// becomes a 500 and a panics_total tick instead of a dead process. The
// recover lives here — inside whatever goroutine runs the handler —
// because a deferred recover in the caller cannot catch a panic on the
// deadline path's worker goroutine.
func (s *Server) invoke(endpoint string, fn func(*http.Request) response, r *http.Request) (resp response) {
	defer func() {
		if p := recover(); p != nil {
			s.metrics.Panicked(endpoint)
			resp = errResponse(http.StatusInternalServerError, "internal error (handler panic contained)")
		}
	}()
	return fn(r)
}

// viewHandler wraps a /v1 handler with generation resolution and the
// LRU response cache. Every /v1 response is a pure function of the
// (generation, canonicalized request) pair — each generation's Index is
// immutable — so hits and misses alike are cacheable, including
// deterministic errors like a 400 for a malformed ASN. The generation
// lands in the cache key (a swap can therefore never replay a stale
// generation's answer) and tags the entry so eviction can purge it.
// Responses produced after the request's context was canceled (a
// deadline 504, or partial work cut off mid-handler) are never cached:
// they are functions of timing, not of the (generation, request) pair.
func (s *Server) viewHandler(endpoint string, fn func(*View, *http.Request) response) func(*http.Request) response {
	return func(r *http.Request) response {
		view, errResp := s.resolveView(r)
		if view == nil {
			return errResp
		}
		gen := strconv.Itoa(view.Gen)
		key := "g" + gen + "\x00" + endpoint + "\x00" + canonicalKey(r)
		if hit, ok := s.cache.Get(key); ok {
			return response{status: hit.Status, contentType: hit.ContentType, body: hit.Body, genHeader: gen}
		}
		resp := fn(view, r)
		if r.Context().Err() == nil {
			s.cache.Put(key, view.Gen, CachedResponse{Status: resp.status, ContentType: resp.contentType, Body: resp.body})
		}
		resp.genHeader = gen
		return resp
	}
}

// canonicalKey reduces a request to its canonical lookup form so that
// equivalent requests share one cache entry: country codes upper-cased,
// ASNs numerically normalized (leading zeros dropped), search names
// name-normalized, the effective search limit spelled out. The
// generation is not part of this form — the cache wrapper prefixes it.
func canonicalKey(r *http.Request) string {
	if cc := r.PathValue("cc"); cc != "" {
		return "cc:" + CanonicalCC(cc)
	}
	if asn := r.PathValue("asn"); asn != "" {
		key := "asn-raw:" + asn
		if n, err := strconv.ParseUint(asn, 10, 32); err == nil {
			key = "asn:" + strconv.FormatUint(n, 10)
		}
		// The neighbors endpoint's class filter is part of its canonical
		// form (case-insensitive).
		if strings.HasPrefix(r.URL.Path, "/v1/graph/neighbors/") {
			key += "\x00class:" + strings.ToLower(r.URL.Query().Get("class"))
		}
		return key
	}
	if id := r.PathValue("id"); id != "" {
		return "id:" + id
	}
	if r.URL.Path == "/v1/search" {
		q := r.URL.Query()
		return "name:" + nameutil.Normalize(q.Get("name")) + "\x00limit:" + q.Get("limit")
	}
	if r.URL.Path == "/v1/graph/path" {
		q := r.URL.Query()
		return "from:" + canonASNParam(q.Get("from")) + "\x00to:" + canonASNParam(q.Get("to"))
	}
	if r.URL.Path == "/v1/hijacks" {
		q := r.URL.Query()
		return "victim:" + canonASNParam(q.Get("victim")) +
			"\x00cc:" + CanonicalCC(q.Get("cc")) +
			"\x00xb:" + canonBoolParam(q.Get("cross_border"))
	}
	return r.URL.Path
}

func (s *Server) write(w http.ResponseWriter, resp response) {
	w.Header().Set("Content-Type", resp.contentType)
	if resp.genHeader != "" {
		w.Header().Set(GenerationHeader, resp.genHeader)
	}
	if resp.retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfterSec))
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
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

func (s *Server) handleASN(v *View, r *http.Request) response {
	raw := r.PathValue("asn")
	n, err := strconv.ParseUint(raw, 10, 32)
	if err != nil || n == 0 {
		return errResponse(http.StatusBadRequest, fmt.Sprintf("invalid ASN %q", raw))
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
	return jsonResponse(status, body)
}

// OrgResponse is one organization with its ASNs. The membership list
// renders through ASNList — the same canonical sorted-ASN form the
// graph cone endpoint uses — so the record plane and the graph plane
// cannot drift.
type OrgResponse struct {
	Organization *expand.OrgRecord `json:"organization"`
	ASNs         ASNList           `json:"asn"`
}

func (s *Server) handleOrg(v *View, r *http.Request) response {
	id := r.PathValue("id")
	org, ok := v.Index.Org(id)
	if !ok {
		return errResponse(http.StatusNotFound, fmt.Sprintf("unknown organization %q", id))
	}
	return jsonResponse(http.StatusOK, OrgResponse{Organization: org.Record, ASNs: ASNList(org.ASNs)})
}

// CountryResponse lists a country's state-owned operators, including
// minority holdings.
type CountryResponse struct {
	CC            string                  `json:"cc"`
	Organizations []OrgResponse           `json:"organizations"`
	Minority      []expand.MinorityRecord `json:"minority,omitempty"`
}

func (s *Server) handleCountry(v *View, r *http.Request) response {
	cc := CanonicalCC(r.PathValue("cc"))
	if len(cc) != 2 || cc[0] < 'A' || cc[0] > 'Z' || cc[1] < 'A' || cc[1] > 'Z' {
		return errResponse(http.StatusBadRequest, fmt.Sprintf("invalid country code %q", r.PathValue("cc")))
	}
	orgs, minority := v.Index.Country(cc)
	body := CountryResponse{CC: cc, Organizations: []OrgResponse{}, Minority: minority}
	for _, o := range orgs {
		body.Organizations = append(body.Organizations, OrgResponse{Organization: o.Record, ASNs: ASNList(o.ASNs)})
	}
	return jsonResponse(http.StatusOK, body)
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

func (s *Server) handleSearch(v *View, r *http.Request) response {
	q := r.URL.Query()
	name := q.Get("name")
	if nameutil.Normalize(name) == "" {
		return errResponse(http.StatusBadRequest, "missing or empty ?name= query")
	}
	limit := s.limit
	if rawLimit := q.Get("limit"); rawLimit != "" {
		n, err := strconv.Atoi(rawLimit)
		if err != nil || n <= 0 {
			return errResponse(http.StatusBadRequest, fmt.Sprintf("invalid ?limit=%s", rawLimit))
		}
		if n < limit {
			limit = n
		}
	}
	body := SearchResponse{Query: nameutil.Normalize(name), Hits: []SearchHitRecord{}}
	for _, h := range v.Index.Search(name, limit) {
		body.Hits = append(body.Hits, SearchHitRecord{
			Score: h.Score, Organization: h.Org.Record, ASNs: h.Org.ASNs,
		})
	}
	return jsonResponse(http.StatusOK, body)
}

// DatasetResponse wraps the Listing-1 export with the generation it
// came from and the build's provenance.
type DatasetResponse struct {
	Generation int             `json:"generation"`
	Provenance Provenance      `json:"provenance"`
	Dataset    json.RawMessage `json:"dataset"`
}

func (s *Server) handleDataset(v *View, _ *http.Request) response {
	var buf bytes.Buffer
	if err := v.Index.Dataset().Export(&buf); err != nil {
		return errResponse(http.StatusInternalServerError, "exporting dataset")
	}
	return jsonResponse(http.StatusOK, DatasetResponse{
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

func (s *Server) handleDiff(r *http.Request) response {
	q := r.URL.Query()
	rawFrom, okFrom := q["from"]
	rawTo, okTo := q["to"]
	if !okFrom || !okTo {
		return errResponse(http.StatusBadRequest, "need both ?from= and ?to= generation numbers")
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
		return errResponse(http.StatusGatewayTimeout, "request canceled before the audit ran")
	}
	audit, ok := s.src.Diff(from, to)
	if !ok {
		return errResponse(http.StatusNotFound, "diff unavailable: this server's source keeps no ground truth")
	}
	return jsonResponse(http.StatusOK, DiffResponse{From: from.Gen, To: to.Gen, Audit: *audit})
}

// --- health and metrics ----------------------------------------------------

func (s *Server) handleHealthz(*http.Request) response {
	return jsonResponse(http.StatusOK, map[string]string{"status": "ok"})
}

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
// During a hot reload the old generation keeps serving, so readiness
// stays green — Reloading only reports that a rebuild is in flight.
// Degraded (with DegradedReason) means the validation gate quarantined
// the newest rebuild(s) and the server is answering from its
// last-known-good generation: still ready (200), but the dataset has
// stopped advancing and an operator should look.
type ReadyResponse struct {
	Ready      bool `json:"ready"`
	Generation int  `json:"generation"`
	Reloading  bool `json:"reloading"`
	// Degraded state of the reload gate (see ReloadStatus).
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	ReloadFailures int    `json:"reload_failures,omitempty"`
	ReloadGaveUp   bool   `json:"reload_gave_up,omitempty"`
	// Incremental-rebuild reuse counters (cumulative over the store's
	// lifetime), present only when the source rebuilds incrementally.
	Incremental  bool   `json:"incremental,omitempty"`
	NodesReused  uint64 `json:"nodes_reused,omitempty"`
	NodesRebuilt uint64 `json:"nodes_rebuilt,omitempty"`
	// Durable-archive state (see ReloadStatus): present only when the
	// source persists generations to the on-disk archive.
	Archive   bool `json:"archive,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// RecoveredGen is a pointer so a warm start onto generation 0 — a
	// perfectly good recovered generation — still serializes instead of
	// vanishing behind omitempty's zero-value rule.
	RecoveredGen         *int           `json:"recovered_gen,omitempty"`
	SegmentsVerified     uint64         `json:"segments_verified,omitempty"`
	SegmentsQuarantined  uint64         `json:"segments_quarantined,omitempty"`
	ArchiveWrites        uint64         `json:"archive_writes,omitempty"`
	ArchiveWriteFailures uint64         `json:"archive_write_failures,omitempty"`
	ArchiveLastError     string         `json:"archive_last_error,omitempty"`
	ChaosSeverity        float64        `json:"chaos_severity"`
	Sources              []SourceStatus `json:"sources,omitempty"`
	DegradedSrc          []string       `json:"degraded_sources,omitempty"`
	Unavailable          []string       `json:"unavailable_sources,omitempty"`
	DegradedStages       []StageStatus  `json:"degraded_stages,omitempty"`
}

func (s *Server) handleReadyz(*http.Request) response {
	v := s.src.Current()
	rs := s.src.ReloadStatus()
	body := ReadyResponse{
		Generation: v.Gen, Reloading: rs.Reloading,
		Degraded: rs.Degraded, DegradedReason: rs.Reason,
		ReloadFailures: rs.ConsecutiveFailures, ReloadGaveUp: rs.GaveUp,
		Incremental: rs.Incremental,
		NodesReused: rs.NodesReused, NodesRebuilt: rs.NodesRebuilt,
		Archive: rs.Archive, Recovered: rs.Recovered,
		SegmentsVerified: rs.SegmentsVerified, SegmentsQuarantined: rs.SegmentsQuarantined,
		ArchiveWrites: rs.ArchiveWrites, ArchiveWriteFailures: rs.ArchiveWriteFailures,
		ArchiveLastError: rs.ArchiveLastError,
	}
	if rs.Recovered {
		rg := rs.RecoveredGen
		body.RecoveredGen = &rg
	}
	if v.Health == nil {
		body.Ready = true
		return jsonResponse(http.StatusOK, body)
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
	return jsonResponse(status, body)
}

func (s *Server) handleMetrics(*http.Request) response {
	v := s.src.Current()
	rs := s.src.ReloadStatus()
	snap := s.metrics.Snapshot()
	snap.Cache = s.cache.Stats()
	if s.limiter != nil {
		st := s.limiter.Stats()
		snap.Admission = &st
	}
	snap.Generation = v.Gen
	snap.Reloading = rs.Reloading
	snap.Degraded = rs.Degraded
	snap.DegradedReason = rs.Reason
	snap.Incremental = rs.Incremental
	snap.NodesReused = rs.NodesReused
	snap.NodesRebuilt = rs.NodesRebuilt
	snap.IndexReuses = rs.IndexReuses
	snap.GraphReuses = rs.GraphReuses
	snap.Archive = rs.Archive
	snap.Recovered = rs.Recovered
	if rs.Recovered {
		rg := rs.RecoveredGen
		snap.RecoveredGen = &rg
	}
	snap.SegmentsVerified = rs.SegmentsVerified
	snap.SegmentsQuarantined = rs.SegmentsQuarantined
	snap.ArchiveWrites = rs.ArchiveWrites
	snap.ArchiveWriteFailures = rs.ArchiveWriteFailures
	if h := v.Health; h != nil {
		snap.BuildWorkers = h.Workers
		for _, nt := range h.Timings {
			snap.BuildNodes = append(snap.BuildNodes, BuildNodeTiming{
				Node:   nt.Node,
				WallMS: float64(nt.Wall) / float64(time.Millisecond),
				Reused: nt.Reused,
			})
		}
	}
	return jsonResponse(http.StatusOK, snap)
}
