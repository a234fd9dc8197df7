package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ShardsFailedHeader names the replicas whose legs were lost when no
// fleet replica could answer a read (503), comma-separated.
const ShardsFailedHeader = "X-Shards-Failed"

// Response is a materialized answer: handlers build one, the response
// cache replays one, and only the spine writes one.
type Response struct {
	Status      int
	ContentType string
	Body        []byte
	// Gen, when non-empty, is sent as the X-Generation header.
	Gen string
	// RetryAfter, when > 0, is sent as a Retry-After header in whole
	// seconds (shed responses).
	RetryAfter int
	// ShardsFailed, when non-empty, is sent as the X-Shards-Failed
	// header (the fleet router's every-replica-lost answer).
	ShardsFailed string
}

// JSONResponse marshals v as an indented JSON response.
func JSONResponse(status int, v any) Response {
	body, err := JSONBody(v)
	if err != nil {
		return ErrorResponse(http.StatusInternalServerError, "encoding response")
	}
	return Response{Status: status, ContentType: "application/json", Body: body}
}

// ErrorResponse materializes the canonical ErrorBody envelope — the one
// constructor every error path (400/404/409/410/500/503/504) goes
// through.
func ErrorResponse(status int, msg string) Response {
	return JSONResponse(status, ErrorBody{Error: msg, Status: status})
}

// Spine is the containment spine every HTTP surface of the serving
// stack answers through: the single-process server, a fleet replica's
// data and control planes, and the fleet router. It owns the request
// registry, admission control (503 + Retry-After under overload),
// per-endpoint deadlines (504 with context cancellation) and the
// per-request panic barrier (500 + panics_total instead of a dead
// process). Handlers never touch the ResponseWriter — they return a
// materialized Response, and only the spine writes, so a late handler
// can never race a timeout answer on the wire.
//
// Every spine answers GET /healthz and the 404 envelope for unknown
// routes; surfaces register the rest with Handle. A route may also
// carry a replay stage (handleReplay), which answers on the request
// goroutine what needs no work, such as a cached response.
type Spine struct {
	metrics *Metrics
	limiter *Limiter
	after   After
	// budgets maps endpoint name to its handler deadline (0 = none).
	budgets map[string]time.Duration
	mux     *http.ServeMux
}

// NewSpine builds a spine whose registry runs on clock (nil =
// WallClock). Admitted routes pass admission control when admission is
// non-nil; budgets maps endpoint names to handler deadlines (nil =
// none); admission waits and deadlines run on after (nil = TimerAfter).
func NewSpine(clock Clock, admission *AdmissionConfig, after After, budgets map[string]time.Duration) *Spine {
	if after == nil {
		after = TimerAfter
	}
	sp := &Spine{metrics: NewMetrics(clock), after: after, budgets: budgets, mux: http.NewServeMux()}
	if admission != nil {
		sp.limiter = NewLimiter(*admission, after)
	}
	sp.route("GET /healthz", "/healthz", false, func(*http.Request) Response {
		return JSONResponse(http.StatusOK, map[string]string{"status": "ok"})
	}, nil)
	sp.route("/", "other", true, func(*http.Request) Response {
		return ErrorResponse(http.StatusNotFound, "unknown endpoint")
	}, nil)
	return sp
}

// Handle registers fn for a ServeMux pattern such as
// "GET /v1/asn/{asn}"; its registry row is the pattern's path up to the
// first wildcard ("/v1/asn"). Admitted routes are load-controlled;
// the others — the operational and control planes — must answer
// precisely when the data plane is shedding.
func (sp *Spine) Handle(pattern string, admitted bool, fn func(*http.Request) Response) {
	sp.route(pattern, endpointOf(pattern), admitted, fn, nil)
}

// replay is a route's replay stage. It runs on the request goroutine
// after admission and answers with work == nil when the answer is
// already made; otherwise work is what the worker runs for this
// request.
type replay func(r *http.Request) (resp Response, work func(*http.Request) Response)

// answer runs rp and then the work it hands back, both on the calling
// goroutine: rp as a plain handler, for a route registered with Handle.
func (rp replay) answer(r *http.Request) Response {
	resp, work := rp(r)
	if work != nil {
		resp = work(r)
	}
	return resp
}

// handleReplay registers an admitted route whose requests pass rp
// before any worker starts: only the work rp hands back runs under the
// endpoint's budget.
func (sp *Spine) handleReplay(pattern string, rp replay) {
	sp.route(pattern, endpointOf(pattern), true, nil, rp)
}

// endpointOf is a pattern's registry row: its path up to the first
// wildcard.
func endpointOf(pattern string) string {
	path := pattern
	if _, p, ok := strings.Cut(pattern, " "); ok {
		path = p
	}
	endpoint, _, _ := strings.Cut(path, "/{")
	return endpoint
}

// route registers a route under pattern, accounted as endpoint: fn is
// its handler, or rp its replay stage.
func (sp *Spine) route(pattern, endpoint string, admitted bool, fn func(*http.Request) Response, rp replay) {
	sp.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := sp.metrics.Begin()
		resp := sp.dispatch(endpoint, admitted, fn, rp, r)
		write(w, resp)
		sp.metrics.End(endpoint, resp.Status, start)
	})
}

// ServeHTTP dispatches to the route table.
func (sp *Spine) ServeHTTP(w http.ResponseWriter, r *http.Request) { sp.mux.ServeHTTP(w, r) }

// Metrics exposes the request registry.
func (sp *Spine) Metrics() *Metrics { return sp.metrics }

// AdmissionStats exposes the limiter accounting (zeroes when admission
// control is off).
func (sp *Spine) AdmissionStats() AdmissionStats { return sp.limiter.Stats() }

// dispatch applies the overload policy to one request. The decision
// ladder: (1) admission — no free slot and no queue room, or the queue
// wait expires → 503 + Retry-After, the request never runs; (2) replay
// — a route with a replay stage answers on the request goroutine what
// is already made (a cached response, a bad ?gen=), releasing its slot
// at once; (3) deadline — the handler runs in a worker but overshoots
// its endpoint budget → its context is canceled (partial-work
// cancellation) and the answer is 504; (4) the handler's materialized
// response. The replay runs outside the budget because it does no work
// that could overrun one: a pointer load (a read lock for ?gen=), a
// key and a map lookup, against a budget measured in seconds. An
// admitted slot is held until the handler actually finishes — even
// past its deadline — so abandoned-but-running work still counts
// against MaxInFlight and a flood of timeouts cannot stack unbounded
// concurrency.
func (sp *Spine) dispatch(endpoint string, admitted bool, fn func(*http.Request) Response, rp replay, r *http.Request) Response {
	release := func() {}
	if admitted && sp.limiter != nil {
		rel, verdict := sp.limiter.Acquire(r.Context().Done())
		if verdict != Admitted {
			sp.metrics.Shed(endpoint)
			resp := ErrorResponse(http.StatusServiceUnavailable, "overloaded: admission queue full or wait expired; retry later")
			resp.RetryAfter = sp.limiter.RetryAfterSeconds()
			return resp
		}
		release = rel
	}
	if rp != nil {
		resp, work := sp.runReplay(endpoint, rp, r)
		if work == nil {
			release()
			return resp
		}
		fn = work
	}
	budget := sp.budgets[endpoint]
	if budget <= 0 {
		defer release()
		return sp.invoke(endpoint, fn, r)
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	done := make(chan Response, 1)
	go func() {
		defer release() // the slot is freed when the work truly ends
		done <- sp.invoke(endpoint, fn, r.WithContext(ctx))
	}()
	expired, stop := sp.after(budget)
	defer stop()
	select {
	case resp := <-done:
		return resp
	case <-expired:
		cancel() // stop context-aware partial work
		sp.metrics.DeadlineExceeded(endpoint)
		return ErrorResponse(http.StatusGatewayTimeout,
			fmt.Sprintf("request exceeded its %s budget", budget))
	}
}

// runReplay runs a replay stage behind the same panic barrier as
// invoke: a panic answers 500 with no work left to run.
func (sp *Spine) runReplay(endpoint string, rp replay, r *http.Request) (resp Response, work func(*http.Request) Response) {
	defer sp.contain(endpoint, &resp)
	return rp(r)
}

// invoke runs one handler behind the panic barrier. The barrier lives
// here — inside whatever goroutine runs the handler — because a
// deferred recover in the caller cannot catch a panic on the deadline
// path's worker goroutine.
func (sp *Spine) invoke(endpoint string, fn func(*http.Request) Response, r *http.Request) (resp Response) {
	defer sp.contain(endpoint, &resp)
	return fn(r)
}

// contain is the per-request panic barrier, deferred by whatever runs
// route code: a panic becomes a 500 in *resp and a panics_total tick
// instead of a dead process.
func (sp *Spine) contain(endpoint string, resp *Response) {
	if p := recover(); p != nil {
		sp.metrics.Panicked(endpoint)
		*resp = ErrorResponse(http.StatusInternalServerError, "internal error (handler panic contained)")
	}
}

// write emits a materialized response — the only code in the serving
// stack that touches a ResponseWriter.
func write(w http.ResponseWriter, resp Response) {
	h := w.Header()
	h.Set("Content-Type", resp.ContentType)
	if resp.Gen != "" {
		h.Set(GenerationHeader, resp.Gen)
	}
	if resp.RetryAfter > 0 {
		h.Set("Retry-After", strconv.Itoa(resp.RetryAfter))
	}
	if resp.ShardsFailed != "" {
		h.Set(ShardsFailedHeader, resp.ShardsFailed)
	}
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}
