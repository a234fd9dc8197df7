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

	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// Router defaults.
const (
	// DefaultRequestTimeout is what the router's leg deadline and hedge
	// delay derive from when RouterOptions.RequestTimeout is 0.
	DefaultRequestTimeout = 2 * time.Second
	// DefaultBreakerProbeEvery is how often an open breaker lets a probe
	// leg through (every Nth denial) so a recovered replica is
	// rediscovered without waiting for an operator.
	DefaultBreakerProbeEvery = 8
	// breakerFailures is how many consecutive lost legs open a
	// replica's circuit.
	breakerFailures = 4
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

	// RequestTimeout sizes the per-replica leg timers (0 =
	// DefaultRequestTimeout): a leg that has not answered within half of
	// it is a failed leg, not a stalled request, and a leg still silent
	// after an eighth of it is duplicated once to the same replica
	// (transport-level errors hedge immediately). The router enforces no
	// whole-request budget: leg deadlines are its only timeout.
	RequestTimeout time.Duration

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
// deadlines, one hedged retry, and a move to the next replica when a
// leg is lost. Every route answers through a serve.Spine — admission
// shedding, the panic barrier, the request registry and the one
// writer, exactly as on a replica — without request budgets.
type Router struct {
	part       Partition
	shards     []*shardState
	gen        atomic.Int64
	spine      *serve.Spine
	metrics    Metrics
	after      serve.After
	legTimeout time.Duration
	hedgeAfter time.Duration
	life       serve.LifecycleOptions
	rr         atomic.Uint64              // rotation cursor
	flip       atomic.Pointer[FlipStatus] // coordinator's last report
}

// shardState is the router's per-replica state: the client plus a
// circuit breaker that opens after breakerFailures consecutive lost
// legs, closes on any answer, and while open lets every
// DefaultBreakerProbeEvery-th denied leg through as a probe.
type shardState struct {
	client ShardClient

	mu       sync.Mutex
	failures int // consecutive lost legs
	denials  int // legs refused since the circuit opened
}

func (ss *shardState) allow() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.failures < breakerFailures {
		return true
	}
	ss.denials++
	return ss.denials%DefaultBreakerProbeEvery == 0
}

func (ss *shardState) success() {
	ss.mu.Lock()
	ss.failures, ss.denials = 0, 0
	ss.mu.Unlock()
}

func (ss *shardState) failure() {
	ss.mu.Lock()
	ss.failures++
	ss.mu.Unlock()
}

func (ss *shardState) open() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.failures >= breakerFailures
}

// NewRouter assembles the fleet router.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Shards) != opts.Partition.Shards {
		return nil, fmt.Errorf("fleet: %d shard clients for a %d-shard partition",
			len(opts.Shards), opts.Partition.Shards)
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
	}
	rt := &Router{
		part:       opts.Partition,
		after:      opts.After,
		legTimeout: reqTimeout / 2,
		hedgeAfter: reqTimeout / 8,
		life:       opts.Lifecycle,
	}
	if rt.after == nil {
		rt.after = serve.TimerAfter
	}
	rt.spine = serve.NewSpine(nil, opts.Admission, rt.after, nil)
	rt.metrics.registry = rt.spine.Metrics()
	for i, c := range opts.Shards {
		c.Index = i
		rt.shards = append(rt.shards, &shardState{client: c})
	}
	rt.spine.Handle("GET /v1/asn/{asn}", true, rt.handleASN)
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
		rt.spine.Handle(pattern, true, func(r *http.Request) serve.Response {
			return rt.forward(r, rt.next(), true)
		})
	}
	// ?from= and ?to= name the generations a diff compares, and diff
	// answers carry no X-Generation to check a pin against.
	rt.spine.Handle("GET /v1/diff", true, func(r *http.Request) serve.Response {
		return rt.forward(r, rt.next(), false)
	})
	rt.spine.Handle("GET /readyz", false, rt.handleReadyz)
	rt.spine.Handle("GET /metrics", false, rt.handleMetrics)
	return rt, nil
}

// Gen returns the committed fleet generation the router is pinning.
func (rt *Router) Gen() int { return int(rt.gen.Load()) }

// SetGen flips the router to a newly committed fleet generation — the
// coordinator's final act of a successful two-phase reload. One atomic
// store: requests in flight keep their already-resolved pin.
func (rt *Router) SetGen(gen int) { rt.gen.Store(int64(gen)) }

// Metrics exposes the router's leg accounting; its snapshots also count
// the /v1 reads in the spine's request registry.
func (rt *Router) Metrics() *Metrics { return &rt.metrics }

// setFlipStatus records the coordinator's latest flip report for
// /readyz.
func (rt *Router) setFlipStatus(st FlipStatus) { rt.flip.Store(&st) }

// ServeHTTP routes one request through the spine.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.spine.ServeHTTP(w, r) }

// Serve runs the router on ln with the hardened lifecycle until ctx is
// canceled.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	return serve.ServeHandler(ctx, ln, rt, rt.life)
}

// --- leg fetching ----------------------------------------------------------

// leg is one replica's answer to a read: either a response (status,
// body, generation, Retry-After) or a transport-level error.
type leg struct {
	shard int
	resp  serve.Response
	err   error
}

// doGet runs one HTTP attempt against a replica.
func (rt *Router) doGet(ctx context.Context, shard int, path string) leg {
	resp, body, err := rt.shards[shard].client.Get(ctx, path)
	if err != nil {
		return leg{shard: shard, err: err}
	}
	l := leg{shard: shard, resp: serve.Response{
		Status:      resp.StatusCode,
		ContentType: "application/json",
		Body:        body,
		Gen:         resp.Header.Get(serve.GenerationHeader),
	}}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			l.resp.RetryAfter = n
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
	if !ss.allow() {
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
func (rt *Router) handleASN(r *http.Request) serve.Response {
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
func (rt *Router) forward(r *http.Request, start int, pinned bool) serve.Response {
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
	var miss *serve.Response
	retryAfter := 1
	for i := range rt.shards {
		if r.Context().Err() != nil {
			break
		}
		shard := (start + i) % len(rt.shards)
		l := rt.fetchLeg(r.Context(), shard, path)
		switch {
		case l.err != nil:
		case l.resp.Status == http.StatusServiceUnavailable:
			retryAfter = max(retryAfter, l.resp.RetryAfter)
		case l.resp.Status == http.StatusOK && pin != "" && l.resp.Gen != pin:
		case l.resp.Status == http.StatusNotFound && (l.resp.Gen == "" || graph):
			if miss == nil {
				miss = &l.resp
			}
			continue
		default:
			return l.resp
		}
		failed = append(failed, shard)
	}
	if miss != nil {
		return *miss
	}
	sort.Ints(failed) // rotation order is arbitrary; the wire contract is ascending
	names := make([]string, len(failed))
	for i, shard := range failed {
		names[i] = strconv.Itoa(shard)
	}
	resp := serve.ErrorResponse(http.StatusServiceUnavailable, "all replicas unavailable")
	resp.ShardsFailed = strings.Join(names, ",")
	resp.RetryAfter = retryAfter
	return resp
}

// --- ops endpoints ---------------------------------------------------------

// RouterStatus is the /readyz body: the committed fleet generation, the
// partition, per-replica breaker state and the coordinator's latest
// flip report.
type RouterStatus struct {
	Gen          int         `json:"gen"`
	Partition    Partition   `json:"partition"`
	BreakersOpen []int       `json:"breakers_open,omitempty"`
	Flip         *FlipStatus `json:"flip,omitempty"`
}

func (rt *Router) handleReadyz(*http.Request) serve.Response {
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
	return serve.JSONResponse(status, st)
}

// RouterMetrics is the /metrics body: the spine's request registry,
// the router's admission accounting and the fleet leg block.
type RouterMetrics struct {
	serve.RequestStats
	Admission serve.AdmissionStats `json:"admission"`
	Fleet     MetricsSnapshot      `json:"fleet"`
}

func (rt *Router) handleMetrics(*http.Request) serve.Response {
	return serve.JSONResponse(http.StatusOK, RouterMetrics{
		RequestStats: rt.spine.Metrics().Snapshot(),
		Admission:    rt.spine.AdmissionStats(),
		Fleet:        rt.metrics.Snapshot(),
	})
}
