package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stateowned/internal/runner"
	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// ShardsFailedHeader names the replicas whose legs were lost when no
// replica could answer a read (503), comma-separated.
const ShardsFailedHeader = "X-Shards-Failed"

// Router defaults.
const (
	// DefaultRequestTimeout is the router's per-request budget.
	DefaultRequestTimeout = 2 * time.Second
	// DefaultBreakerProbeEvery is how often an open breaker lets a probe
	// leg through (every Nth denial) so a recovered replica is
	// rediscovered without waiting for an operator.
	DefaultBreakerProbeEvery = 8
)

// Leg-failure sentinels (classified, never written to the wire).
var (
	errBreakerOpen = errors.New("fleet: shard breaker open")
	errLegDeadline = errors.New("fleet: leg deadline exceeded")
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Partition is the fleet's /v1/asn affinity; Shards must hold one
	// client per replica, in shard order.
	Partition Partition
	Shards    []ShardClient

	// Admission bounds router-level concurrency; nil admits everything.
	Admission *serve.AdmissionConfig

	// RequestTimeout is the full-request budget (0 = 2s). LegTimeout is
	// the per-replica leg deadline carved from it (0 = RequestTimeout/2)
	// — a leg that misses it is a failed leg, not a stalled request.
	// HedgeAfter is how long a leg waits before duplicating itself to
	// the same replica (0 = LegTimeout/4); transport-level errors hedge
	// immediately.
	RequestTimeout time.Duration
	LegTimeout     time.Duration
	HedgeAfter     time.Duration

	// BreakerThreshold opens a replica's circuit after that many
	// consecutive transport failures (0 = runner default of 4);
	// BreakerProbeEvery lets every Nth denied leg through as a probe
	// (0 = 8).
	BreakerThreshold  int
	BreakerProbeEvery int

	// After is the injectable timer all router waits run on (nil =
	// serve.TimerAfter); tests drive hedging, leg deadlines and
	// admission on a virtual clock through it.
	After serve.After

	// Lifecycle carries the listener hardening for Serve.
	Lifecycle serve.LifecycleOptions
}

// Router is the fleet's front door. Every replica holds the whole
// generation, so each /v1 read goes to exactly one replica and its
// answer is passed through byte for byte. The router owns the committed
// fleet generation: a read that names no generation is pinned to it
// with ?gen=, and a 200 answering from any other generation is
// discarded as incoherent, so no response mixes generations even while
// a two-phase flip is mid-flight. Around that coherence core it wraps
// failover: per-replica circuit breakers with probe recovery, per-leg
// deadlines, one hedged retry, a move to the next replica when a leg is
// lost, and router-level admission shedding.
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
	life       serve.LifecycleOptions
	rr         atomic.Uint64              // rotation cursor
	flip       atomic.Pointer[FlipStatus] // coordinator's last report
}

// shardState is the router's per-replica state: the client plus a
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
	rt.mux.HandleFunc("GET /v1/asn/{asn}", rt.handle(rt.handleASN))
	for _, pattern := range []string{
		"GET /v1/country/{cc}",
		"GET /v1/org/{id}",
		"GET /v1/search",
		"GET /v1/dataset",
		"GET /v1/graph/neighbors/{asn}",
		"GET /v1/graph/upstreams/{asn}",
		"GET /v1/graph/cone/{asn}",
		"GET /v1/graph/path",
		"GET /v1/hijacks",
	} {
		rt.mux.HandleFunc(pattern, rt.handle(func(r *http.Request) routerResponse {
			return rt.forward(r, rt.next(), true)
		}))
	}
	// ?from= and ?to= name the generations a diff compares, and diff
	// answers carry no X-Generation to check a pin against.
	rt.mux.HandleFunc("GET /v1/diff", rt.handle(func(r *http.Request) routerResponse {
		return rt.forward(r, rt.next(), false)
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
	}
	if resp.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfter))
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// --- leg fetching ----------------------------------------------------------

// leg is one replica's answer to a read: either a response (status,
// body, generation, Retry-After) or a transport-level error.
type leg struct {
	shard      int
	status     int
	body       []byte
	gen        string
	retryAfter int
	err        error
}

// doGet runs one HTTP attempt against a replica.
func (rt *Router) doGet(ctx context.Context, shard int, path string) leg {
	resp, body, err := rt.shards[shard].client.Get(ctx, path)
	if err != nil {
		return leg{shard: shard, err: err}
	}
	l := leg{
		shard:  shard,
		status: resp.StatusCode,
		body:   body,
		gen:    resp.Header.Get(serve.GenerationHeader),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			l.retryAfter = n
		}
	}
	return l
}

// fetchLeg runs one replica leg: circuit-breaker gate, a deadline
// carved from the request budget, and at most one hedged retry — fired
// early on a transport error, or after the hedge delay when the first
// attempt is merely slow. Any HTTP response (including a 503 shed)
// closes the breaker: the replica is alive and talking. Transport
// errors and leg deadlines feed it.
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
	launch := func() {
		go func() { resc <- rt.doGet(legCtx, shard, path) }()
	}
	launch()
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
				launch()
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
				launch()
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

// --- routing ---------------------------------------------------------------

// next advances the rotation cursor and returns the replica a read
// starts at.
func (rt *Router) next() int { return int(rt.rr.Add(1) % uint64(len(rt.shards))) }

// handleASN starts an ASN read at the replica whose partition range
// holds the ASN, so each replica's response cache warms on its own
// range. A malformed ASN has no range; the replica it rotates to
// answers the 400.
func (rt *Router) handleASN(r *http.Request) routerResponse {
	n, err := strconv.ParseUint(r.PathValue("asn"), 10, 32)
	if err != nil {
		return rt.forward(r, rt.next(), true)
	}
	return rt.forward(r, rt.part.ShardOf(world.ASN(n)), true)
}

// forward sends one /v1 read to exactly one replica, starting at start.
// The raw path and query go through unchanged, so the replica validates
// them and every answer — error envelopes included — is single-process
// bytes. When pinned and the client named no generation, the read is
// pinned to the committed fleet generation.
//
// One rule moves a read to the next replica: the leg was lost (transport
// error, open breaker, leg deadline), the replica shed it (503), its 200
// answered from a generation other than the pin, or it answered a 404
// that is not the fleet's answer. A 404 without X-Generation means the
// replica does not hold the generation asked for; a /v1/graph 404 may
// come from a warm-started replica that serves no graph until its next
// live build. After divergent recovery another replica may hold either,
// so the first such 404 is returned only when no replica does better.
// Every other answer, 404s included, is the fleet's answer. When every
// replica is lost: 503 naming them, with the largest Retry-After.
func (rt *Router) forward(r *http.Request, start int, pinned bool) routerResponse {
	query, pin := r.URL.RawQuery, ""
	if _, named := r.URL.Query()["gen"]; pinned && !named {
		pin = strconv.Itoa(rt.Gen())
		if query != "" {
			query += "&"
		}
		query += "gen=" + pin
	}
	path := r.URL.EscapedPath()
	if query != "" {
		path += "?" + query
	}
	graph := strings.HasPrefix(r.URL.Path, "/v1/graph/")

	var failed []int
	var miss *leg
	retryAfter := 1
	for i := range rt.shards {
		if r.Context().Err() != nil {
			break
		}
		shard := (start + i) % len(rt.shards)
		l := rt.fetchLeg(r.Context(), shard, path)
		switch {
		case l.err != nil:
		case l.status == http.StatusServiceUnavailable:
			retryAfter = max(retryAfter, l.retryAfter)
		case l.status == http.StatusOK && pin != "" && l.gen != pin:
		case l.status == http.StatusNotFound && (l.gen == "" || graph):
			if miss == nil {
				miss = &l
			}
			continue
		default:
			return routerResponse{status: l.status, body: l.body, gen: l.gen, retryAfter: l.retryAfter}
		}
		failed = append(failed, shard)
	}
	if miss != nil {
		return routerResponse{status: miss.status, body: miss.body, gen: miss.gen}
	}
	sort.Ints(failed) // rotation order is arbitrary; the wire contract is ascending
	resp := errRouterResponse(http.StatusServiceUnavailable, "all replicas unavailable")
	resp.shardsFailed = failed
	resp.retryAfter = retryAfter
	return resp
}

// --- ops endpoints ---------------------------------------------------------

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// RouterStatus is the /readyz body: the committed fleet generation, the
// partition, per-replica breaker state and the coordinator's latest
// flip report.
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
