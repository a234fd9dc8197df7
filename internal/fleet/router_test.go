package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// asnOnShard finds an ASN the partition assigns to the given shard.
func (tf *testFleet) asnOnShard(t testing.TB, shard int) world.ASN {
	t.Helper()
	for _, a := range tf.shards[0].Store().Current().Result.Dataset.AllASNs() {
		if tf.part.ShardOf(a) == shard {
			return a
		}
	}
	t.Fatalf("no ASN maps to shard %d", shard)
	return 0
}

func asnPath(a world.ASN) string {
	return "/v1/asn/" + strconv.FormatUint(uint64(a), 10)
}

// TestRouterPartialEnvelope proves pillar two's degraded-response
// contract end to end: with one shard down, scatter endpoints answer
// 206 from the survivors with X-Shards-Failed and a partial body
// envelope, the fast path 503s only for ASNs the dead shard owns, and
// once the shard returns, answers are byte-identical to the healthy
// baseline (the envelope leaves no residue).
func TestRouterPartialEnvelope(t *testing.T) {
	// A high breaker threshold keeps the circuit out of this test: the
	// down period costs several leg failures, and the point here is the
	// envelope contract, not breaker behavior.
	tf := buildFleet(t, fleetConfig{
		shards:    2,
		routerOpt: func(o *RouterOptions) { o.BreakerThreshold = 100 },
	})
	cc := tf.shards[0].Store().Current().World.Countries[0]
	asn0 := tf.asnOnShard(t, 0)
	asn1 := tf.asnOnShard(t, 1)

	baseline := tf.get("/v1/country/" + cc)
	if baseline.Code != http.StatusOK {
		t.Fatalf("healthy country: %d %s", baseline.Code, baseline.Body.String())
	}
	if h := baseline.Header().Get(ShardsFailedHeader); h != "" {
		t.Fatalf("healthy country carries %s: %q", ShardsFailedHeader, h)
	}

	tf.transport.setDown("shard1", true)

	// Scatter with a lost minority: degraded but explicit.
	rec := tf.get("/v1/country/" + cc)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("country with shard 1 down: %d %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get(ShardsFailedHeader); h != "1" {
		t.Fatalf("%s = %q, want \"1\"", ShardsFailedHeader, h)
	}
	var env struct {
		Partial      bool  `json:"partial"`
		ShardsFailed []int `json:"shards_failed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if !env.Partial || len(env.ShardsFailed) != 1 || env.ShardsFailed[0] != 1 {
		t.Fatalf("partial envelope %+v", env)
	}

	// Fast path: the dead shard's ASNs are unavailable, everyone else's
	// answer normally.
	if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusServiceUnavailable ||
		rec.Header().Get(ShardsFailedHeader) != "1" {
		t.Fatalf("asn on dead shard: %d %s %q", rec.Code, rec.Body.String(),
			rec.Header().Get(ShardsFailedHeader))
	}
	if rec := tf.get(asnPath(asn0)); rec.Code != http.StatusOK {
		t.Fatalf("asn on live shard: %d %s", rec.Code, rec.Body.String())
	}

	// Any-shard endpoints rotate around the dead shard.
	for i := 0; i < 4; i++ {
		if rec := tf.get("/v1/dataset"); rec.Code != http.StatusOK {
			t.Fatalf("dataset with shard 1 down (attempt %d): %d", i, rec.Code)
		}
	}

	// Recovery: the partial envelope leaves no residue.
	tf.transport.setDown("shard1", false)
	rec = tf.get("/v1/country/" + cc)
	if rec.Code != http.StatusOK {
		t.Fatalf("country after recovery: %d %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get(ShardsFailedHeader); h != "" {
		t.Fatalf("recovered country still carries %s %q", ShardsFailedHeader, h)
	}
	if !bytes.Equal(rec.Body.Bytes(), baseline.Body.Bytes()) {
		t.Fatal("recovered country body differs from the healthy baseline")
	}

	if m := tf.router.Metrics().Snapshot(); m.Partials == 0 || m.LegFailures == 0 {
		t.Fatalf("metrics did not record the degradation: %+v", m)
	}
}

// TestRouterAllShardsLost proves the every-leg-failed verdict: an
// explicit 503 naming every shard, with a Retry-After hint — never a
// fabricated empty 200.
func TestRouterAllShardsLost(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	cc := tf.shards[0].Store().Current().World.Countries[0]
	tf.transport.setDown("shard0", true)
	tf.transport.setDown("shard1", true)

	for _, path := range []string{"/v1/country/" + cc, "/v1/search?name=telecom", "/v1/dataset"} {
		rec := tf.get(path)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s with all shards down: %d %s", path, rec.Code, rec.Body.String())
		}
		if h := rec.Header().Get(ShardsFailedHeader); h != "0,1" {
			t.Fatalf("%s: %s = %q, want \"0,1\"", path, ShardsFailedHeader, h)
		}
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Fatalf("%s: shed without Retry-After", path)
		}
	}

	// An org lookup must degrade, not fabricate a 404: the record may
	// have lived on a lost shard.
	rec := tf.get("/v1/org/ORG-ANYTHING")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("org with all shards down: %d (a 404 here would be a lie)", rec.Code)
	}
}

// TestRouterRetryAfterPropagation proves shard-side back-pressure
// surfaces at the router: a shard answering 503 + Retry-After marks the
// leg failed (partial answer) and the largest shard hint rides the
// router's response — and the breaker does NOT open, because an HTTP
// answer means the shard is alive.
func TestRouterRetryAfterPropagation(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	cc := tf.shards[0].Store().Current().World.Countries[0]
	shedBody, _ := serve.JSONBody(serve.ErrorBody{Error: "overloaded", Status: 503})
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.URL.Host == "shard1" && strings.HasPrefix(req.URL.Path, "/v1/country/") {
			return craftedResponse(http.StatusServiceUnavailable,
				map[string]string{"Retry-After": "7", "Content-Type": "application/json"},
				string(shedBody)), true
		}
		return nil, false
	})

	rec := tf.get("/v1/country/" + cc)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("country with shard 1 shedding: %d %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the shard's hint \"7\"", ra)
	}
	if h := rec.Header().Get(ShardsFailedHeader); h != "1" {
		t.Fatalf("%s = %q, want \"1\"", ShardsFailedHeader, h)
	}
	if tf.router.shards[1].open() {
		t.Fatal("a shard-side 503 opened the breaker — back-pressure is not shard death")
	}
}

// TestRouterIncoherentLegRejected proves the coherence core: a 200 leg
// answering from a generation other than the pin is a torn read and
// must be discarded, even on the single-shard fast path.
func TestRouterIncoherentLegRejected(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	asn0 := tf.asnOnShard(t, 0)
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.URL.Host == "shard0" && strings.HasPrefix(req.URL.Path, "/v1/asn/") {
			return craftedResponse(http.StatusOK,
				map[string]string{serve.GenerationHeader: "5", "Content-Type": "application/json"},
				`{"asn": 1}`), true
		}
		return nil, false
	})
	rec := tf.get(asnPath(asn0))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("incoherent fast-path leg passed through: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "generation") {
		t.Fatalf("incoherence 503 does not say why: %s", rec.Body.String())
	}
}

// TestRouterBreakerOpensAndProbes proves the breaker lifecycle: enough
// consecutive transport failures open a shard's circuit (requests fail
// fast without touching the transport), every Nth denial probes
// through, and a successful probe closes the circuit.
func TestRouterBreakerOpensAndProbes(t *testing.T) {
	tf := buildFleet(t, fleetConfig{
		shards: 2,
		routerOpt: func(o *RouterOptions) {
			o.BreakerThreshold = 2
			o.BreakerProbeEvery = 3
		},
	})
	asn1 := tf.asnOnShard(t, 1)
	tf.transport.setDown("shard1", true)

	// Two failed fan-outs (each fetchLeg records one failure after its
	// hedge also dies) trip the threshold-2 breaker.
	for i := 0; i < 2; i++ {
		if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d against down shard: %d", i, rec.Code)
		}
	}
	if !tf.router.shards[1].open() {
		t.Fatal("breaker still closed after threshold failures")
	}

	// The shard recovers, but the breaker doesn't know yet: the next two
	// requests are denied without touching the transport, and the third
	// denial probes through, succeeds, and closes the circuit.
	tf.transport.setDown("shard1", false)
	before := tf.router.Metrics().Snapshot().BreakerDenials
	for i := 0; i < 2; i++ {
		if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("denied request %d: %d, want fail-fast 503", i, rec.Code)
		}
	}
	if got := tf.router.Metrics().Snapshot().BreakerDenials; got != before+2 {
		t.Fatalf("breaker denials %d, want %d", got, before+2)
	}
	if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusOK {
		t.Fatalf("probe request: %d, want 200", rec.Code)
	}
	if tf.router.shards[1].open() {
		t.Fatal("breaker still open after a successful probe")
	}
	if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery request: %d", rec.Code)
	}
}

// TestRouterHedgeOnTransportError proves the fast hedge: a leg whose
// first attempt dies at the transport level retries immediately (no
// timer), and the hedged attempt's answer serves the request.
func TestRouterHedgeOnTransportError(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	asn0 := tf.asnOnShard(t, 0)
	var calls atomic.Int64
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.URL.Host == "shard0" && strings.HasPrefix(req.URL.Path, "/v1/asn/") {
			if calls.Add(1) == 1 {
				return nil, true // first attempt: transport error
			}
		}
		return nil, false
	})
	rec := tf.get(asnPath(asn0))
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request: %d %s", rec.Code, rec.Body.String())
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d attempts, want first + hedge", got)
	}
	if m := tf.router.Metrics().Snapshot(); m.Hedges != 1 {
		t.Fatalf("hedges metric %d, want 1", m.Hedges)
	}
	if tf.router.shards[0].open() {
		t.Fatal("breaker opened although the hedge succeeded")
	}
}

// TestRouterHedgeOnSlowLeg proves the timer hedge on a virtual clock: a
// first attempt that stalls (no transport error, just silence) is
// duplicated when the hedge timer fires, and the duplicate's answer
// serves the request while the stalled attempt is abandoned.
func TestRouterHedgeOnSlowLeg(t *testing.T) {
	const (
		hedgeAfter = 1 * time.Second
		legTimeout = 2 * time.Second
	)
	hedgeCh := make(chan time.Time)
	stall := make(chan struct{})   // holds the first attempt open
	stalled := make(chan struct{}) // signals the first attempt arrived
	defer close(stall)

	tf := buildFleet(t, fleetConfig{
		shards: 2,
		routerOpt: func(o *RouterOptions) {
			o.HedgeAfter = hedgeAfter
			o.LegTimeout = legTimeout
			o.After = func(d time.Duration) (<-chan time.Time, func() bool) {
				if d == hedgeAfter {
					return hedgeCh, noStop
				}
				return nil, noStop // deadlines never fire in this test
			}
		},
	})
	asn0 := tf.asnOnShard(t, 0)
	var calls atomic.Int64
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.URL.Host == "shard0" && strings.HasPrefix(req.URL.Path, "/v1/asn/") {
			if calls.Add(1) == 1 {
				close(stalled)
				<-stall // the first attempt hangs until the test ends
				return nil, true
			}
		}
		return nil, false
	})

	done := make(chan *http.Response, 1)
	go func() {
		rec := tf.get(asnPath(asn0))
		done <- rec.Result()
	}()

	<-stalled              // first attempt is wedged inside the transport
	hedgeCh <- time.Time{} // fire the hedge timer

	select {
	case resp := <-done:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hedged request: %d", resp.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never completed after the hedge fired")
	}
	if m := tf.router.Metrics().Snapshot(); m.Hedges != 1 {
		t.Fatalf("hedges metric %d, want 1", m.Hedges)
	}
}

// TestRouterAdmissionShed proves pillar three at the router: with
// MaxInFlight 1 and no queue, a second concurrent request is shed with
// 503 + Retry-After while the first (wedged in a shard call) still
// completes normally.
func TestRouterAdmissionShed(t *testing.T) {
	tf := buildFleet(t, fleetConfig{
		shards: 2,
		routerOpt: func(o *RouterOptions) {
			o.Admission = &serve.AdmissionConfig{MaxInFlight: 1, MaxQueue: -1}
		},
	})
	asn0 := tf.asnOnShard(t, 0)
	wedge := make(chan struct{})
	arrived := make(chan struct{})
	var once atomic.Bool
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.URL.Host == "shard0" && strings.HasPrefix(req.URL.Path, "/v1/asn/") &&
			once.CompareAndSwap(false, true) {
			close(arrived)
			<-wedge
		}
		return nil, false
	})

	first := make(chan int, 1)
	go func() {
		first <- tf.get(asnPath(asn0)).Code
	}()
	<-arrived // the one admission slot is held

	rec := tf.get(asnPath(asn0))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second concurrent request: %d, want shed 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("shed Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "router overloaded") {
		t.Fatalf("shed body: %s", rec.Body.String())
	}

	close(wedge)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted request: %d", code)
	}
	if m := tf.router.Metrics().Snapshot(); m.Shed != 1 {
		t.Fatalf("shed metric %d, want 1", m.Shed)
	}
}

// TestRouterOpsEndpoints proves the ops surface: healthz is
// unconditional, readyz reports the fleet generation and degrades to
// 503 only when every breaker is open, metrics returns the fleet and
// admission snapshots, and unknown routes get the JSON error envelope.
func TestRouterOpsEndpoints(t *testing.T) {
	tf := buildFleet(t, fleetConfig{
		shards:    2,
		routerOpt: func(o *RouterOptions) { o.BreakerThreshold = 1 },
	})

	if rec := tf.get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	rec := tf.get("/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz healthy: %d %s", rec.Code, rec.Body.String())
	}
	var st RouterStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Gen != 0 || st.Partition.Shards != 2 || len(st.BreakersOpen) != 0 {
		t.Fatalf("readyz status %+v", st)
	}

	rec = tf.get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	var m RouterMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}

	rec = tf.get("/v2/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", rec.Code)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusNotFound {
		t.Fatalf("unknown-route body %q (err %v)", rec.Body.String(), err)
	}

	// Kill both shards; threshold 1 opens both breakers after one
	// fan-out, and readyz goes unready.
	tf.transport.setDown("shard0", true)
	tf.transport.setDown("shard1", true)
	cc := tf.shards[0].Store().Current().World.Countries[0]
	tf.get("/v1/country/" + cc)
	rec = tf.get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with every breaker open: %d %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || len(st.BreakersOpen) != 2 {
		t.Fatalf("unready status %+v (err %v)", st, err)
	}
}
