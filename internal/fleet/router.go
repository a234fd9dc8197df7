package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stateowned/internal/nameutil"
	"stateowned/internal/runner"
	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// ShardsFailedHeader names the shards whose legs were lost on a
// degraded (206) or exhausted (503) fan-out, comma-separated.
const ShardsFailedHeader = "X-Shards-Failed"

// Router fan-out defaults.
const (
	// DefaultRequestTimeout is the router's per-request budget.
	DefaultRequestTimeout = 2 * time.Second
	// DefaultBreakerProbeEvery is how often an open breaker lets a probe
	// leg through (every Nth denial) so a recovered shard is rediscovered
	// without waiting for an operator.
	DefaultBreakerProbeEvery = 8
)

// Leg-failure sentinels (classified, never written to the wire).
var (
	errBreakerOpen = errors.New("fleet: shard breaker open")
	errLegDeadline = errors.New("fleet: leg deadline exceeded")
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Partition is the fleet's partition function; Shards must hold one
	// client per partition shard, in shard order.
	Partition Partition
	Shards    []ShardClient
	// InitialGen is the committed fleet generation the router starts
	// pinning (normally adopted from Bootstrap).
	InitialGen int

	// Admission bounds router-level concurrency; nil admits everything.
	Admission *serve.AdmissionConfig

	// RequestTimeout is the full-request budget (0 = 2s). LegTimeout is
	// the per-shard leg deadline carved from it (0 = RequestTimeout/2) —
	// a leg that misses it is a failed leg, not a stalled request.
	// HedgeAfter is how long a leg waits before duplicating itself to
	// the same shard (0 = LegTimeout/4); transport-level errors hedge
	// immediately.
	RequestTimeout time.Duration
	LegTimeout     time.Duration
	HedgeAfter     time.Duration

	// BreakerThreshold opens a shard's circuit after that many
	// consecutive transport failures (0 = runner default of 4);
	// BreakerProbeEvery lets every Nth denied leg through as a probe
	// (0 = 8).
	BreakerThreshold  int
	BreakerProbeEvery int

	// SearchLimit caps /v1/search results (<= 0 = 10); shards in the
	// same fleet must be configured with the same limit for the merged
	// top-K to equal the single-process top-K.
	SearchLimit int

	// After is the injectable timer all router waits run on (nil =
	// serve.TimerAfter); tests drive hedging, leg deadlines and
	// admission on a virtual clock through it.
	After serve.After

	// Lifecycle carries the listener hardening for Serve.
	Lifecycle serve.LifecycleOptions
}

// Router is the fleet's front door. It owns the committed fleet
// generation: every shard leg — fast path included — is pinned to it
// with ?gen=, and a leg answering from any other generation is
// discarded as incoherent, so no response ever mixes generations even
// while a two-phase flip is mid-flight. Around that coherence core it
// wraps the fan-out robustness: per-shard circuit breakers with probe
// recovery, per-leg deadlines, one hedged retry, partial (206)
// envelopes for minority leg loss, and router-level admission shedding.
type Router struct {
	part       Partition
	shards     []*shardState
	gen        atomic.Int64
	limiter    *serve.Limiter
	metrics    Metrics
	mux        *http.ServeMux
	after      serve.After
	legTimeout time.Duration
	hedgeAfter time.Duration
	probeEvery int
	searchLim  int
	life       serve.LifecycleOptions
	rr         atomic.Uint64              // any-shard rotation cursor
	flip       atomic.Pointer[FlipStatus] // coordinator's last report
}

// shardState is the router's per-shard fan-out state: the client plus a
// mutex-wrapped circuit breaker (runner.Breaker is not goroutine-safe)
// with probe-through recovery.
type shardState struct {
	client ShardClient

	mu      sync.Mutex
	br      *runner.Breaker
	denials int
}

func (ss *shardState) allow(probeEvery int) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.br.Allow() {
		return true
	}
	ss.denials++
	return ss.denials%probeEvery == 0
}

func (ss *shardState) success() {
	ss.mu.Lock()
	ss.br.Success()
	ss.denials = 0
	ss.mu.Unlock()
}

func (ss *shardState) failure() {
	ss.mu.Lock()
	ss.br.Failure()
	ss.mu.Unlock()
}

func (ss *shardState) open() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.br.Open()
}

// NewRouter assembles the fleet router.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Shards) != opts.Partition.Shards {
		return nil, fmt.Errorf("fleet: %d shard clients for a %d-shard partition",
			len(opts.Shards), opts.Partition.Shards)
	}
	rt := &Router{
		part:       opts.Partition,
		after:      opts.After,
		legTimeout: opts.LegTimeout,
		hedgeAfter: opts.HedgeAfter,
		probeEvery: opts.BreakerProbeEvery,
		searchLim:  opts.SearchLimit,
		life:       opts.Lifecycle,
		mux:        http.NewServeMux(),
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
	}
	if rt.legTimeout <= 0 {
		rt.legTimeout = reqTimeout / 2
	}
	if rt.hedgeAfter <= 0 {
		rt.hedgeAfter = rt.legTimeout / 4
	}
	if rt.probeEvery <= 0 {
		rt.probeEvery = DefaultBreakerProbeEvery
	}
	if rt.searchLim <= 0 {
		rt.searchLim = 10
	}
	if rt.after == nil {
		rt.after = serve.TimerAfter
	}
	if opts.Admission != nil {
		rt.limiter = serve.NewLimiter(*opts.Admission, rt.after)
	}
	for i, c := range opts.Shards {
		c.Index = i
		rt.shards = append(rt.shards, &shardState{
			client: c,
			br:     runner.NewBreaker(opts.BreakerThreshold),
		})
	}
	rt.gen.Store(int64(opts.InitialGen))
	rt.mux.HandleFunc("GET /v1/asn/{asn}", rt.handle(rt.handleASN))
	rt.mux.HandleFunc("GET /v1/country/{cc}", rt.handle(rt.handleCountry))
	rt.mux.HandleFunc("GET /v1/org/{id}", rt.handle(rt.handleOrg))
	rt.mux.HandleFunc("GET /v1/search", rt.handle(rt.handleSearch))
	rt.mux.HandleFunc("GET /v1/dataset", rt.handle(rt.handleDataset))
	rt.mux.HandleFunc("GET /v1/diff", rt.handle(rt.handleDiff))
	rt.mux.HandleFunc("GET /v1/graph/neighbors/{asn}", rt.handle(func(r *http.Request) routerResponse {
		return rt.handleGraph(r, "/v1/graph/neighbors/"+url.PathEscape(r.PathValue("asn")))
	}))
	rt.mux.HandleFunc("GET /v1/graph/upstreams/{asn}", rt.handle(func(r *http.Request) routerResponse {
		return rt.handleGraph(r, "/v1/graph/upstreams/"+url.PathEscape(r.PathValue("asn")))
	}))
	rt.mux.HandleFunc("GET /v1/graph/cone/{asn}", rt.handle(func(r *http.Request) routerResponse {
		return rt.handleGraph(r, "/v1/graph/cone/"+url.PathEscape(r.PathValue("asn")))
	}))
	rt.mux.HandleFunc("GET /v1/graph/path", rt.handle(func(r *http.Request) routerResponse {
		return rt.handleGraph(r, "/v1/graph/path")
	}))
	// Hijack detections are global observations (like graph answers),
	// served from any healthy shard's full plane.
	rt.mux.HandleFunc("GET /v1/hijacks", rt.handle(func(r *http.Request) routerResponse {
		return rt.handleGraph(r, "/v1/hijacks")
	}))
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, http.StatusNotFound, fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
	})
	return rt, nil
}

// Gen returns the committed fleet generation the router is pinning.
func (rt *Router) Gen() int { return int(rt.gen.Load()) }

// SetGen flips the router to a newly committed fleet generation — the
// coordinator's final act of a successful two-phase reload. One atomic
// store: requests in flight keep their already-resolved pin.
func (rt *Router) SetGen(gen int) { rt.gen.Store(int64(gen)) }

// Metrics exposes the router's fleet accounting.
func (rt *Router) Metrics() *Metrics { return &rt.metrics }

// setFlipStatus records the coordinator's latest flip report for
// /readyz.
func (rt *Router) setFlipStatus(st FlipStatus) { rt.flip.Store(&st) }

// ServeHTTP routes one request.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Serve runs the router on ln with the hardened lifecycle until ctx is
// canceled.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	return serve.ServeHandler(ctx, ln, rt, rt.life)
}

// routerResponse is a materialized router answer; handlers build one
// and only the spine writes, mirroring the single-process server's
// containment discipline.
type routerResponse struct {
	status       int
	body         []byte
	gen          string
	shardsFailed []int
	retryAfter   int
}

func errRouterResponse(status int, msg string) routerResponse {
	body, _ := serve.JSONBody(serve.ErrorBody{Error: msg, Status: status})
	return routerResponse{status: status, body: body}
}

// handle is the router's containment spine: admission shedding, panic
// isolation, single-writer response emission.
func (rt *Router) handle(fn func(*http.Request) routerResponse) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.metrics.requests.Add(1)
		release, verdict := rt.limiter.Acquire(r.Context().Done())
		if verdict != serve.Admitted {
			rt.metrics.shed.Add(1)
			resp := errRouterResponse(http.StatusServiceUnavailable, "router overloaded, retry later")
			resp.retryAfter = rt.limiter.RetryAfterSeconds()
			rt.write(w, resp)
			return
		}
		defer release()
		resp := func() (resp routerResponse) {
			defer func() {
				if p := recover(); p != nil {
					resp = errRouterResponse(http.StatusInternalServerError, "internal error")
				}
			}()
			return fn(r)
		}()
		rt.write(w, resp)
	}
}

// write emits a materialized response.
func (rt *Router) write(w http.ResponseWriter, resp routerResponse) {
	w.Header().Set("Content-Type", "application/json")
	if resp.gen != "" {
		w.Header().Set(serve.GenerationHeader, resp.gen)
	}
	if len(resp.shardsFailed) > 0 {
		parts := make([]string, len(resp.shardsFailed))
		for i, s := range resp.shardsFailed {
			parts[i] = strconv.Itoa(s)
		}
		w.Header().Set(ShardsFailedHeader, strings.Join(parts, ","))
		rt.metrics.partials.Add(1)
	}
	if resp.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfter))
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// pin resolves the generation this request's legs are pinned to: the
// client's explicit ?gen= if present (time travel within the retention
// ring), the router's committed fleet generation otherwise. The second
// return is the already-formatted query value.
func (rt *Router) pin(r *http.Request) (int, string, *routerResponse) {
	if raw := r.URL.Query().Get("gen"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			resp := errRouterResponse(http.StatusBadRequest, fmt.Sprintf("invalid generation %q", raw))
			return 0, "", &resp
		}
		return n, raw, nil
	}
	g := rt.Gen()
	return g, strconv.Itoa(g), nil
}

// --- leg fetching ----------------------------------------------------------

// doGet runs one HTTP attempt against a shard.
func (rt *Router) doGet(ctx context.Context, shard int, path string, hedged bool) leg {
	resp, body, err := rt.shards[shard].client.Get(ctx, path)
	if err != nil {
		return leg{shard: shard, err: err, hedged: hedged}
	}
	l := leg{
		shard:  shard,
		status: resp.StatusCode,
		body:   body,
		gen:    resp.Header.Get(serve.GenerationHeader),
		hedged: hedged,
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			l.retryAfter = n
		}
	}
	return l
}

// fetchLeg runs one shard leg of a fan-out: circuit-breaker gate, a
// deadline carved from the request budget, and at most one hedged
// retry — fired early on a transport error, or after the hedge delay
// when the first attempt is merely slow. Any HTTP response (including a
// 503 shed) closes the breaker: the shard is alive and talking.
// Transport errors and leg deadlines feed it.
func (rt *Router) fetchLeg(ctx context.Context, shard int, path string) leg {
	rt.metrics.legs.Add(1)
	ss := rt.shards[shard]
	if !ss.allow(rt.probeEvery) {
		rt.metrics.breakerDenials.Add(1)
		rt.metrics.legFailures.Add(1)
		return leg{shard: shard, err: errBreakerOpen}
	}
	legCtx, cancel := context.WithCancel(ctx)
	defer cancel() // unblocks any attempt still in flight when we return
	resc := make(chan leg, 2)
	launch := func(hedged bool) {
		go func() { resc <- rt.doGet(legCtx, shard, path, hedged) }()
	}
	launch(false)
	outstanding, hedged := 1, false
	hedgeCh, stopHedge := rt.after(rt.hedgeAfter)
	defer stopHedge()
	deadline, stopDeadline := rt.after(rt.legTimeout)
	defer stopDeadline()
	var lastErr leg
	for {
		select {
		case l := <-resc:
			outstanding--
			if l.err == nil {
				ss.success()
				return l
			}
			lastErr = l
			if !hedged {
				hedged = true
				rt.metrics.hedges.Add(1)
				launch(true)
				outstanding++
				continue
			}
			if outstanding == 0 {
				ss.failure()
				rt.metrics.legFailures.Add(1)
				return lastErr
			}
		case <-hedgeCh:
			hedgeCh = nil
			if !hedged {
				hedged = true
				rt.metrics.hedges.Add(1)
				launch(true)
				outstanding++
			}
		case <-deadline:
			ss.failure()
			rt.metrics.legFailures.Add(1)
			return leg{shard: shard, err: errLegDeadline}
		case <-ctx.Done():
			rt.metrics.legFailures.Add(1)
			return leg{shard: shard, err: ctx.Err()}
		}
	}
}

// scatter fans one path out to every shard concurrently.
func (rt *Router) scatter(ctx context.Context, path string) []leg {
	rt.metrics.fanouts.Add(1)
	legs := make([]leg, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legs[i] = rt.fetchLeg(ctx, i, path)
		}(i)
	}
	wg.Wait()
	return legs
}

// anyShard asks shards in rotation until one yields an HTTP response —
// for fleet-wide answers (/v1/dataset, /v1/diff) any single shard's
// full plane can serve. pin non-empty additionally requires coherence.
//
// A 404 is not the fleet's answer yet: after divergent recovery, shards
// legitimately hold different archive histories (one disk died earlier
// than another), so "I don't hold that generation/span" from one shard
// may still be served by the next. Rotation continues past 404s and the
// first one is returned only when no shard can do better — the fleet
// answers 404 exactly when nobody holds it, independent of rotation
// phase. Other statuses (400, 410, 503…) are deterministic verdicts
// about the request itself and pass through from the first responder.
func (rt *Router) anyShard(ctx context.Context, path, pin string) (leg, []int) {
	start := int(rt.rr.Add(1))
	var failed []int
	var miss *leg
	for i := 0; i < len(rt.shards); i++ {
		shard := (start + i) % len(rt.shards)
		l := rt.fetchLeg(ctx, shard, path)
		if l.err != nil {
			failed = append(failed, shard)
			continue
		}
		if pin != "" && l.status == http.StatusOK && l.gen != pin {
			failed = append(failed, shard)
			continue
		}
		if l.status == http.StatusNotFound {
			if miss == nil {
				miss = &l
			}
			continue
		}
		sort.Ints(failed)
		return l, failed
	}
	sort.Ints(failed) // rotation order is arbitrary; the wire contract is ascending
	if miss != nil {
		return *miss, failed
	}
	return leg{err: errors.New("fleet: no shard answered")}, failed
}

// --- endpoint handlers -----------------------------------------------------

// handleASN is the single-shard fast path: the partition function names
// the one shard that owns the ASN, and its (pinned, coherent) answer is
// passed through byte for byte.
func (rt *Router) handleASN(r *http.Request) routerResponse {
	raw := r.PathValue("asn")
	n, err := strconv.ParseUint(raw, 10, 32)
	if err != nil || n == 0 {
		return errRouterResponse(http.StatusBadRequest, fmt.Sprintf("invalid ASN %q", raw))
	}
	_, pinStr, errResp := rt.pin(r)
	if errResp != nil {
		return *errResp
	}
	shard := rt.part.ShardOf(world.ASN(n))
	l := rt.fetchLeg(r.Context(), shard, "/v1/asn/"+raw+"?gen="+pinStr)
	switch {
	case l.err != nil:
		resp := errRouterResponse(http.StatusServiceUnavailable,
			fmt.Sprintf("shard %d unavailable", shard))
		resp.shardsFailed = []int{shard}
		return resp
	case l.status == http.StatusOK && l.gen != pinStr:
		resp := errRouterResponse(http.StatusServiceUnavailable,
			fmt.Sprintf("shard %d answered generation %s, pinned %s", shard, l.gen, pinStr))
		resp.shardsFailed = []int{shard}
		return resp
	default:
		return routerResponse{status: l.status, body: l.body, gen: l.gen, retryAfter: l.retryAfter}
	}
}

// handleCountry scatter-gathers every shard's slice of a country and
// merges them deterministically.
func (rt *Router) handleCountry(r *http.Request) routerResponse {
	cc := serve.CanonicalCC(r.PathValue("cc"))
	if len(cc) != 2 || cc[0] < 'A' || cc[0] > 'Z' || cc[1] < 'A' || cc[1] > 'Z' {
		return errRouterResponse(http.StatusBadRequest, fmt.Sprintf("invalid country code %q", r.PathValue("cc")))
	}
	_, pinStr, errResp := rt.pin(r)
	if errResp != nil {
		return *errResp
	}
	legs := rt.scatter(r.Context(), "/v1/country/"+cc+"?gen="+pinStr)
	cls := classify(legs, pinStr)
	if cls.detErr != nil {
		return routerResponse{status: cls.detErr.status, body: cls.detErr.body, gen: cls.detErr.gen}
	}
	if len(cls.ok) == 0 {
		return rt.allLegsLost(cls)
	}
	body, err := mergeCountry(cc, cls.ok, cls.envelope())
	if err != nil {
		return errRouterResponse(http.StatusInternalServerError, "merging country responses")
	}
	return rt.mergedResponse(body, pinStr, cls)
}

// handleOrg scatters an organization lookup; the owning shards carry
// whole replicas, so the first coherent 200 is the complete answer.
func (rt *Router) handleOrg(r *http.Request) routerResponse {
	_, pinStr, errResp := rt.pin(r)
	if errResp != nil {
		return *errResp
	}
	legs := rt.scatter(r.Context(), "/v1/org/"+url.PathEscape(r.PathValue("id"))+"?gen="+pinStr)
	cls := classify(legs, pinStr)
	if len(cls.ok) > 0 {
		// A replica is the whole record: one coherent 200 is complete even
		// if other shards were lost.
		l := cls.ok[0]
		return routerResponse{status: l.status, body: l.body, gen: l.gen}
	}
	if len(cls.failed) > 0 {
		// The org may have lived on a lost shard; "not found" would be a
		// lie. Degrade explicitly.
		return rt.allLegsLost(cls)
	}
	if cls.detErr != nil {
		return routerResponse{status: cls.detErr.status, body: cls.detErr.body, gen: cls.detErr.gen}
	}
	return errRouterResponse(http.StatusServiceUnavailable, "no shard answered")
}

// handleSearch scatter-gathers the fuzzy name search and merges the
// per-shard top-K into the exact global top-K.
func (rt *Router) handleSearch(r *http.Request) routerResponse {
	q := r.URL.Query()
	name := q.Get("name")
	if nameutil.Normalize(name) == "" {
		return errRouterResponse(http.StatusBadRequest, "missing or empty ?name= query")
	}
	limit := rt.searchLim
	if rawLimit := q.Get("limit"); rawLimit != "" {
		n, err := strconv.Atoi(rawLimit)
		if err != nil || n <= 0 {
			return errRouterResponse(http.StatusBadRequest, fmt.Sprintf("invalid ?limit=%s", rawLimit))
		}
		if n < limit {
			limit = n
		}
	}
	_, pinStr, errResp := rt.pin(r)
	if errResp != nil {
		return *errResp
	}
	vals := url.Values{}
	vals.Set("name", name)
	vals.Set("limit", strconv.Itoa(limit))
	vals.Set("gen", pinStr)
	legs := rt.scatter(r.Context(), "/v1/search?"+vals.Encode())
	cls := classify(legs, pinStr)
	if cls.detErr != nil {
		return routerResponse{status: cls.detErr.status, body: cls.detErr.body, gen: cls.detErr.gen}
	}
	if len(cls.ok) == 0 {
		return rt.allLegsLost(cls)
	}
	body, err := mergeSearch(cls.ok, limit, cls.envelope())
	if err != nil {
		return errRouterResponse(http.StatusInternalServerError, "merging search responses")
	}
	return rt.mergedResponse(body, pinStr, cls)
}

// handleDataset routes the full Listing-1 export to any healthy shard's
// full plane — every shard builds the identical generation, so one
// shard's export is the fleet's.
func (rt *Router) handleDataset(r *http.Request) routerResponse {
	_, pinStr, errResp := rt.pin(r)
	if errResp != nil {
		return *errResp
	}
	l, failed := rt.anyShard(r.Context(), FullPrefix+"/v1/dataset?gen="+pinStr, pinStr)
	if l.err != nil {
		resp := errRouterResponse(http.StatusServiceUnavailable, "no shard could serve the dataset")
		resp.shardsFailed = failed
		resp.retryAfter = 1
		return resp
	}
	return routerResponse{status: l.status, body: l.body, gen: l.gen, retryAfter: l.retryAfter}
}

// handleDiff routes the churn audit to any healthy shard's full plane;
// ?from= and ?to= name the generations, so the answer is deterministic
// regardless of which shard runs it.
func (rt *Router) handleDiff(r *http.Request) routerResponse {
	path := FullPrefix + "/v1/diff"
	if raw := r.URL.RawQuery; raw != "" {
		path += "?" + raw
	}
	l, failed := rt.anyShard(r.Context(), path, "")
	if l.err != nil {
		resp := errRouterResponse(http.StatusServiceUnavailable, "no shard could serve the diff")
		resp.shardsFailed = failed
		resp.retryAfter = 1
		return resp
	}
	return routerResponse{status: l.status, body: l.body, gen: l.gen, retryAfter: l.retryAfter}
}

// handleGraph routes one /v1/graph/* query to any healthy shard's full
// plane — graph answers are global (relationships cross partition
// boundaries), so they must never be range-carved; every shard holds
// the identical compiled graph. When the client did not pin a
// generation the router pins its committed fleet generation, so a
// two-phase flip mid-request cannot mix generations. An explicit ?gen=
// (even a malformed or empty one) passes through raw: the shard's own
// pinning makes the answer deterministic, and its error envelopes stay
// byte-identical to single-process serving.
func (rt *Router) handleGraph(r *http.Request, subpath string) routerResponse {
	q := r.URL.Query()
	pin := ""
	if _, ok := q["gen"]; !ok {
		pin = strconv.Itoa(rt.Gen())
		q.Set("gen", pin)
	}
	path := FullPrefix + subpath
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	l, failed := rt.anyShard(r.Context(), path, pin)
	if l.err != nil {
		resp := errRouterResponse(http.StatusServiceUnavailable, "no shard could serve the graph query")
		resp.shardsFailed = failed
		resp.retryAfter = 1
		return resp
	}
	return routerResponse{status: l.status, body: l.body, gen: l.gen, retryAfter: l.retryAfter}
}

// mergedResponse wraps a merged body: 200 when every leg contributed,
// 206 + X-Shards-Failed when a minority was lost.
func (rt *Router) mergedResponse(body []byte, pin string, cls classified) routerResponse {
	resp := routerResponse{status: http.StatusOK, body: body, gen: pin}
	if len(cls.failed) > 0 {
		resp.status = http.StatusPartialContent
		resp.shardsFailed = cls.failed
		resp.retryAfter = cls.retryAfter
	}
	return resp
}

// allLegsLost is the every-leg-failed verdict: an explicit 503 naming
// the lost shards — never a fabricated empty answer, never a 500.
func (rt *Router) allLegsLost(cls classified) routerResponse {
	resp := errRouterResponse(http.StatusServiceUnavailable, "all shards unavailable")
	resp.shardsFailed = cls.failed
	resp.retryAfter = cls.retryAfter
	if resp.retryAfter <= 0 {
		resp.retryAfter = 1
	}
	return resp
}

// --- ops endpoints ---------------------------------------------------------

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// RouterStatus is the /readyz body: the committed fleet generation, the
// partition, per-shard breaker state and the coordinator's latest flip
// report.
type RouterStatus struct {
	Gen          int         `json:"gen"`
	Partition    Partition   `json:"partition"`
	BreakersOpen []int       `json:"breakers_open,omitempty"`
	Flip         *FlipStatus `json:"flip,omitempty"`
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := RouterStatus{Gen: rt.Gen(), Partition: rt.part, Flip: rt.flip.Load()}
	for i, ss := range rt.shards {
		if ss.open() {
			st.BreakersOpen = append(st.BreakersOpen, i)
		}
	}
	// Ready as long as we can still answer: every breaker open means no
	// leg can succeed.
	status := http.StatusOK
	if len(st.BreakersOpen) == len(rt.shards) && len(rt.shards) > 0 {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, st)
}

// RouterMetrics is the /metrics body.
type RouterMetrics struct {
	Fleet     MetricsSnapshot      `json:"fleet"`
	Admission serve.AdmissionStats `json:"admission"`
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, RouterMetrics{
		Fleet:     rt.metrics.Snapshot(),
		Admission: rt.limiter.Stats(),
	})
}
