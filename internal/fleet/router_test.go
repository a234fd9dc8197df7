package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// probeBattery is the router-level request set the failover tests
// replay against a single-process server: every /v1 endpoint, an ASN
// from each replica's range, misses (ASN, org, country, graph ASN) and
// malformed input, so error envelopes are compared too.
func (tf *testFleet) probeBattery(t testing.TB) []string {
	t.Helper()
	cur := tf.shards[0].Store().Current()
	ds := cur.Result.Dataset
	var paths []string
	for shard := range tf.shards {
		paths = append(paths, asnPath(tf.asnOnShard(t, shard)))
	}
	a := strconv.FormatUint(uint64(ds.AllASNs()[0]), 10)
	b := strconv.FormatUint(uint64(ds.AllASNs()[len(ds.AllASNs())-1]), 10)
	return append(paths,
		"/v1/asn/49999", // never state-owned
		"/v1/asn/notanumber",
		"/v1/asn/"+a+"?gen=abc",
		"/v1/asn/"+a+"?gen=99",
		"/v1/country/"+cur.World.Countries[0],
		"/v1/country/ZZ",
		"/v1/country/notacountry",
		"/v1/org/"+ds.Organizations[0].OrgID,
		"/v1/org/ORG-NOPE",
		"/v1/search?name=telecom",
		"/v1/search?name=telecom&limit=3",
		"/v1/search?name=zzzzqqqq",
		"/v1/search",
		"/v1/dataset",
		"/v1/dataset?gen=0",
		"/v1/diff?from=0&to=0",
		"/v1/diff?from=0",
		"/v1/graph/neighbors/"+a+"?class=provider",
		"/v1/graph/upstreams/"+a,
		"/v1/graph/cone/"+a,
		"/v1/graph/cone/4294967294",
		"/v1/graph/path?from="+a+"&to="+b,
		"/v1/hijacks",
	)
}

// matchesSingle replays paths through the router and fails on the
// first answer whose status, body or X-Generation differs from the
// single-process server's.
func (tf *testFleet) matchesSingle(t *testing.T, single http.Handler, paths []string, stage string) {
	t.Helper()
	for _, path := range paths {
		want := httptest.NewRecorder()
		single.ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
		got := tf.get(path)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%d replicas, %s: GET %s\nfleet (%d): %.300s\nsingle (%d): %.300s",
				len(tf.shards), stage, path, got.Code, got.Body, want.Code, want.Body)
		}
		if g, w := got.Header().Get(serve.GenerationHeader), want.Header().Get(serve.GenerationHeader); g != w {
			t.Fatalf("%d replicas, %s: GET %s X-Generation %q, single %q", len(tf.shards), stage, path, g, w)
		}
		if h := got.Header().Get(serve.ShardsFailedHeader); h != "" {
			t.Fatalf("%d replicas, %s: GET %s answered with %s %q", len(tf.shards), stage, path, serve.ShardsFailedHeader, h)
		}
	}
}

// TestRouterMinorityLossAnswersComplete proves the replica contract:
// with one of 2 and with one of 3 replicas down, every probe answers
// with the single-process status and bytes — the read fails over to a
// live replica instead of degrading. The dead replica's breaker opens
// and its lost legs are counted; once it is back, a probe closes the
// breaker and every probe still answers single-process bytes.
func TestRouterMinorityLossAnswersComplete(t *testing.T) {
	cfg := fleetConfig{seed: 42, scale: 0.05, retain: 8}
	single := serve.NewDynamic(shardStore(cfg).Source(), serve.Options{})
	for _, n := range []int{2, 3} {
		cfg := cfg
		cfg.shards = n
		tf := buildFleet(t, cfg)
		paths := tf.probeBattery(t)
		tf.matchesSingle(t, single, paths, "healthy")

		down := n - 1
		host := fmt.Sprintf("shard%d", down)
		tf.transport.setDown(host, true)
		tf.matchesSingle(t, single, paths, "one replica down")
		if !tf.router.shards[down].open() {
			t.Fatalf("%d replicas: the dead replica's breaker never opened", n)
		}
		if m := tf.router.Metrics().Snapshot(); m.LegFailures == 0 || m.BreakerDenials == 0 {
			t.Fatalf("%d replicas: metrics did not record the lost legs: %+v", n, m)
		}

		tf.transport.setDown(host, false)
		for i := 0; tf.router.shards[down].open(); i++ {
			if i > 10*DefaultBreakerProbeEvery {
				t.Fatalf("%d replicas: the revived replica's breaker never closed", n)
			}
			tf.get(asnPath(tf.asnOnShard(t, down)))
		}
		tf.matchesSingle(t, single, paths, "after revival")
	}
}

// TestRouterAllShardsLost proves the every-leg-failed verdict: an
// explicit 503 naming every replica, with a Retry-After hint — never a
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
		if h := rec.Header().Get(serve.ShardsFailedHeader); h != "0,1" {
			t.Fatalf("%s: %s = %q, want \"0,1\"", path, serve.ShardsFailedHeader, h)
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

// shedResponse is a replica-side 503 with the given Retry-After hint.
func shedResponse(retryAfter string) *http.Response {
	body, _ := serve.JSONBody(serve.ErrorBody{Error: "overloaded", Status: 503})
	return craftedResponse(http.StatusServiceUnavailable,
		map[string]string{"Retry-After": retryAfter, "Content-Type": "application/json"},
		string(body))
}

// TestRouterRetryAfterPropagation proves replica-side back-pressure at
// the router: a replica answering 503 + Retry-After loses only its leg
// — the read moves to the next replica, which answers 200 — and the
// breaker does NOT open, because an HTTP answer means the replica is
// alive. When every replica sheds, the router answers 503 with the
// largest replica hint.
func TestRouterRetryAfterPropagation(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	path := asnPath(tf.asnOnShard(t, 1)) // starts at replica 1
	healthy := tf.get(path)
	if healthy.Code != http.StatusOK {
		t.Fatalf("healthy read: %d %s", healthy.Code, healthy.Body.String())
	}
	shedding := func(hints map[string]string) func(*http.Request) (*http.Response, bool) {
		return func(req *http.Request) (*http.Response, bool) {
			if ra, ok := hints[req.URL.Host]; ok && strings.HasPrefix(req.URL.Path, "/v1/") {
				return shedResponse(ra), true
			}
			return nil, false
		}
	}

	tf.transport.setIntercept(shedding(map[string]string{"shard1": "7"}))
	rec := tf.get(path)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), healthy.Body.Bytes()) {
		t.Fatalf("read with replica 1 shedding: %d %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get(serve.ShardsFailedHeader); h != "" {
		t.Fatalf("failed-over 200 carries %s %q", serve.ShardsFailedHeader, h)
	}
	if tf.router.shards[1].open() {
		t.Fatal("a replica-side 503 opened the breaker — back-pressure is not replica death")
	}

	tf.transport.setIntercept(shedding(map[string]string{"shard0": "3", "shard1": "7"}))
	rec = tf.get(path)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("read with every replica shedding: %d %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the largest replica hint \"7\"", ra)
	}
	if h := rec.Header().Get(serve.ShardsFailedHeader); h != "0,1" {
		t.Fatalf("%s = %q, want \"0,1\"", serve.ShardsFailedHeader, h)
	}
}

// TestRouterIncoherentLegRejected proves the coherence core: a 200 leg
// answering from a generation other than the pin is a torn read and is
// discarded — the read moves to the next replica, and when no replica
// answers coherently the router says so with a 503 instead of passing
// the torn body through.
func TestRouterIncoherentLegRejected(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	path := asnPath(tf.asnOnShard(t, 0)) // starts at replica 0
	healthy := tf.get(path)
	tearing := func(hosts ...string) func(*http.Request) (*http.Response, bool) {
		return func(req *http.Request) (*http.Response, bool) {
			for _, h := range hosts {
				if req.URL.Host == h && strings.HasPrefix(req.URL.Path, "/v1/asn/") {
					return craftedResponse(http.StatusOK,
						map[string]string{serve.GenerationHeader: "5", "Content-Type": "application/json"},
						`{"asn": 1}`), true
				}
			}
			return nil, false
		}
	}

	tf.transport.setIntercept(tearing("shard0"))
	rec := tf.get(path)
	if rec.Code != http.StatusOK || rec.Header().Get(serve.GenerationHeader) != "0" ||
		!bytes.Equal(rec.Body.Bytes(), healthy.Body.Bytes()) {
		t.Fatalf("incoherent leg passed through: %d gen %q %s",
			rec.Code, rec.Header().Get(serve.GenerationHeader), rec.Body.String())
	}

	tf.transport.setIntercept(tearing("shard0", "shard1"))
	rec = tf.get(path)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get(serve.ShardsFailedHeader) != "0,1" {
		t.Fatalf("every leg incoherent: %d %q %s", rec.Code, rec.Header().Get(serve.ShardsFailedHeader), rec.Body.String())
	}
}

// TestRouterMissesCostOneLeg proves that a 404 carrying X-Generation is
// the fleet's answer, not a lost leg: on a healthy fleet a missing ASN,
// an unknown org and an unknown country each cost exactly one leg.
func TestRouterMissesCostOneLeg(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	paths := []string{"/v1/asn/49999", "/v1/asn/4294967294", "/v1/org/ORG-NOPE", "/v1/country/ZZ"}
	for _, path := range paths {
		for i := 0; i < len(tf.shards); i++ { // every rotation start
			before := tf.router.Metrics().Snapshot().Legs
			rec := tf.get(path)
			if legs := tf.router.Metrics().Snapshot().Legs - before; legs != 1 {
				t.Fatalf("GET %s (%d) cost %d legs, want 1", path, rec.Code, legs)
			}
		}
	}
}

// TestRouterNotHeldMovesOn proves the two 404s that are not the fleet's
// answer: one without X-Generation (the replica does not hold the
// generation) and a /v1/graph one (a warm-started replica serves no
// graph until its next live build). Both move the read to the next
// replica, which answers.
func TestRouterNotHeldMovesOn(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	asn := tf.asnOnShard(t, 0)
	paths := []string{asnPath(asn), fmt.Sprintf("/v1/graph/cone/%d", asn)}
	healthy := map[string][]byte{}
	for _, p := range paths {
		healthy[p] = tf.get(p).Body.Bytes()
	}
	tf.transport.setIntercept(func(req *http.Request) (*http.Response, bool) {
		if req.URL.Host != "shard0" {
			return nil, false
		}
		switch {
		case strings.HasPrefix(req.URL.Path, "/v1/asn/"):
			return craftedResponse(http.StatusNotFound, nil, `{"error": "unknown generation 0", "status": 404}`), true
		case strings.HasPrefix(req.URL.Path, "/v1/graph/"):
			return craftedResponse(http.StatusNotFound, map[string]string{serve.GenerationHeader: "0"},
				`{"error": "graph index unavailable", "status": 404}`), true
		}
		return nil, false
	})
	for _, p := range paths {
		for i := 0; i < len(tf.shards); i++ { // every rotation start
			if rec := tf.get(p); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), healthy[p]) {
				t.Fatalf("GET %s with replica 0 missing it: %d %s", p, rec.Code, rec.Body.String())
			}
		}
	}
}

// TestRouterBreakerOpensAndProbes proves the breaker lifecycle: enough
// consecutive transport failures open a replica's circuit (its legs
// fail fast without touching the transport, and the read moves to the
// next replica), every Nth denial probes through, and a successful
// probe closes the circuit.
func TestRouterBreakerOpensAndProbes(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	asn1 := tf.asnOnShard(t, 1) // starts at replica 1
	tf.transport.setDown("shard1", true)

	// breakerFailures failed legs (each fetchLeg records one failure
	// after its hedge also dies) trip the breaker; replica 0 answers
	// every read.
	for i := 0; i < breakerFailures; i++ {
		if tf.router.shards[1].open() {
			t.Fatalf("breaker open after %d failures, threshold %d", i, breakerFailures)
		}
		if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusOK {
			t.Fatalf("request %d against down replica: %d", i, rec.Code)
		}
	}
	if !tf.router.shards[1].open() {
		t.Fatal("breaker still closed after threshold failures")
	}

	// The replica recovers, but the breaker doesn't know yet: the next
	// legs to it are denied without touching the transport (replica 0
	// answers), and the DefaultBreakerProbeEvery-th denial probes
	// through, succeeds, and closes the circuit.
	tf.transport.setDown("shard1", false)
	before := tf.router.Metrics().Snapshot()
	const denied = DefaultBreakerProbeEvery - 1
	for i := 0; i < denied; i++ {
		if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusOK {
			t.Fatalf("denied request %d: %d, want a failed-over 200", i, rec.Code)
		}
	}
	m := tf.router.Metrics().Snapshot()
	if m.BreakerDenials != before.BreakerDenials+denied || m.Legs != before.Legs+2*denied {
		t.Fatalf("breaker denials %d and legs %d, want %d and %d",
			m.BreakerDenials, m.Legs, before.BreakerDenials+denied, before.Legs+2*denied)
	}
	if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusOK {
		t.Fatalf("probe request: %d, want 200", rec.Code)
	}
	if tf.router.shards[1].open() {
		t.Fatal("breaker still open after a successful probe")
	}
	before = tf.router.Metrics().Snapshot()
	if rec := tf.get(asnPath(asn1)); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery request: %d", rec.Code)
	}
	if legs := tf.router.Metrics().Snapshot().Legs - before.Legs; legs != 1 {
		t.Fatalf("post-recovery request cost %d legs, want 1", legs)
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
	// The hedge fires after an eighth of the request timeout, the leg
	// deadline after half of it.
	const (
		requestTimeout = 8 * time.Second
		hedgeAfter     = requestTimeout / 8
	)
	hedgeCh := make(chan time.Time)
	stall := make(chan struct{})   // holds the first attempt open
	stalled := make(chan struct{}) // signals the first attempt arrived
	defer close(stall)

	tf := buildFleet(t, fleetConfig{
		shards: 2,
		routerOpt: func(o *RouterOptions) {
			o.RequestTimeout = requestTimeout
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
// MaxInFlight 1 and no queue, a second concurrent request is shed by
// the spine with serve's 503 envelope + Retry-After, counted in the
// registry's shed_total, while the first (wedged in a shard call)
// still completes normally.
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
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusServiceUnavailable || eb.Error == "" {
		t.Fatalf("shed body %q is not the 503 envelope (err %v)", rec.Body.String(), err)
	}

	close(wedge)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("admitted request: %d", code)
	}
	var m RouterMetrics
	if err := json.Unmarshal(tf.get("/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.ShedTotal != 1 || m.Admission.ShedQueueFull != 1 {
		t.Fatalf("shed_total %d, admission %+v, want one shed", m.ShedTotal, m.Admission)
	}
}

// TestRouterOpsEndpoints proves the ops surface: healthz is
// unconditional, readyz reports the fleet generation and degrades to
// 503 only when every breaker is open, metrics returns the spine's
// registry beside the admission and fleet leg blocks, and unknown
// routes get the JSON error envelope.
func TestRouterOpsEndpoints(t *testing.T) {
	tf := buildFleet(t, fleetConfig{shards: 2})
	asn := tf.asnOnShard(t, 0)
	if rec := tf.get(asnPath(asn)); rec.Code != http.StatusOK {
		t.Fatalf("read: %d", rec.Code)
	}

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
	var asnRow *serve.EndpointSnapshot
	for i := range m.Endpoints {
		if m.Endpoints[i].Endpoint == "/v1/asn" {
			asnRow = &m.Endpoints[i]
		}
	}
	if asnRow == nil || asnRow.Requests != 1 || asnRow.ByStatus["200"] != 1 || m.Fleet.Legs != 1 {
		t.Fatalf("/metrics registry row %+v, fleet block %+v", asnRow, m.Fleet)
	}
	var top, fleetBlock map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["fleet"], &fleetBlock); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"in_flight", "requests", "endpoints", "shed_total", "shed_fraction",
		"deadline_exceeded_total", "panics_total", "admission", "fleet"} {
		if _, ok := top[k]; !ok {
			t.Errorf("/metrics lacks %q", k)
		}
	}
	for _, k := range []string{"requests_total", "shed_total"} {
		if _, ok := fleetBlock[k]; ok {
			t.Errorf("/metrics fleet block still carries %q", k)
		}
	}

	rec = tf.get("/v2/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", rec.Code)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusNotFound {
		t.Fatalf("unknown-route body %q (err %v)", rec.Body.String(), err)
	}

	// Kill both replicas; every read fails over across both, so
	// breakerFailures reads open both breakers, and readyz goes unready.
	tf.transport.setDown("shard0", true)
	tf.transport.setDown("shard1", true)
	cc := tf.shards[0].Store().Current().World.Countries[0]
	for i := 0; i < breakerFailures; i++ {
		tf.get("/v1/country/" + cc)
	}
	rec = tf.get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with every breaker open: %d %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || len(st.BreakersOpen) != 2 {
		t.Fatalf("unready status %+v (err %v)", st, err)
	}
}
