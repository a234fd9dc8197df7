package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"stateowned/internal/expand"
	"stateowned/internal/runner"
)

// testClock is a deterministic virtual-unit clock: each reading advances
// by step units. Safe for concurrent readers (the soak tests hammer it
// from many request goroutines).
func testClock(step int64) Clock {
	var now atomic.Int64
	return func() int64 {
		return now.Add(step)
	}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = testClock(3)
	}
	return New(BuildIndex(fixtureDataset()), opts)
}

func do(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func TestEndpointASN(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: 16})

	w := do(t, s, "/v1/asn/100")
	if w.Code != http.StatusOK {
		t.Fatalf("asn 100: %d %s", w.Code, w.Body)
	}
	resp := decode[ASNResponse](t, w)
	if resp.Status != "state-owned" || resp.Organization.OrgID != "ORG-0001" || len(resp.SiblingASNs) != 2 {
		t.Fatalf("asn 100 resp = %+v", resp)
	}

	if w := do(t, s, "/v1/asn/400"); w.Code != http.StatusOK {
		t.Fatalf("minority asn: %d", w.Code)
	} else if resp := decode[ASNResponse](t, w); resp.Status != "minority" || len(resp.Minority) != 1 {
		t.Fatalf("minority resp = %+v", resp)
	}

	if w := do(t, s, "/v1/asn/999"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown asn: %d", w.Code)
	}
	if w := do(t, s, "/v1/asn/abc"); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed asn: %d", w.Code)
	}
	if w := do(t, s, "/v1/asn/0"); w.Code != http.StatusBadRequest {
		t.Fatalf("asn 0: %d", w.Code)
	}
}

func TestEndpointCountry(t *testing.T) {
	s := newTestServer(t, Options{})

	w := do(t, s, "/v1/country/ao")
	if w.Code != http.StatusOK {
		t.Fatalf("country ao: %d", w.Code)
	}
	resp := decode[CountryResponse](t, w)
	if resp.CC != "AO" || len(resp.Organizations) != 1 || len(resp.Minority) != 1 {
		t.Fatalf("country ao resp = %+v", resp)
	}

	// A valid code with no operators is an empty 200, not a 404.
	if w := do(t, s, "/v1/country/FR"); w.Code != http.StatusOK {
		t.Fatalf("empty country: %d", w.Code)
	} else if resp := decode[CountryResponse](t, w); len(resp.Organizations) != 0 {
		t.Fatalf("FR orgs = %+v", resp.Organizations)
	}

	if w := do(t, s, "/v1/country/123"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad cc: %d", w.Code)
	}
}

func TestEndpointOrgAndSearch(t *testing.T) {
	s := newTestServer(t, Options{})

	if w := do(t, s, "/v1/org/ORG-0002"); w.Code != http.StatusOK {
		t.Fatalf("org: %d", w.Code)
	} else if resp := decode[OrgResponse](t, w); resp.Organization.TargetCC != "MM" {
		t.Fatalf("org resp = %+v", resp)
	}
	if w := do(t, s, "/v1/org/ORG-9999"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown org: %d", w.Code)
	}

	w := do(t, s, "/v1/search?name=angola+cables")
	if w.Code != http.StatusOK {
		t.Fatalf("search: %d", w.Code)
	}
	if resp := decode[SearchResponse](t, w); len(resp.Hits) == 0 || resp.Hits[0].Organization.OrgID != "ORG-0001" {
		t.Fatalf("search resp = %+v", resp)
	}
	if w := do(t, s, "/v1/search"); w.Code != http.StatusBadRequest {
		t.Fatalf("search without name: %d", w.Code)
	}
	if w := do(t, s, "/v1/search?name=angola&limit=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("search bad limit: %d", w.Code)
	}
}

func TestEndpointDatasetRoundTrips(t *testing.T) {
	s := newTestServer(t, Options{})
	w := do(t, s, "/v1/dataset")
	if w.Code != http.StatusOK {
		t.Fatalf("dataset: %d", w.Code)
	}
	wrap := decode[DatasetResponse](t, w)
	if wrap.Generation != 0 || wrap.Provenance.Origin != "static" {
		t.Fatalf("dataset envelope = gen %d origin %q", wrap.Generation, wrap.Provenance.Origin)
	}
	ds, err := expand.Import(bytes.NewReader(wrap.Dataset))
	if err != nil {
		t.Fatalf("re-importing served dataset: %v", err)
	}
	if len(ds.Organizations) != 3 || len(ds.Minority) != 2 {
		t.Fatalf("round-tripped dataset: %d orgs, %d minority", len(ds.Organizations), len(ds.Minority))
	}
}

func TestEndpointUnknownPath(t *testing.T) {
	s := newTestServer(t, Options{})
	if w := do(t, s, "/v2/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown path: %d", w.Code)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	s := newTestServer(t, Options{})
	if w := do(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	// No health report: always ready.
	if w := do(t, s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz without health: %d", w.Code)
	}

	// Degraded-but-available sources: ready, listed.
	h := runner.NewHealth(0.4)
	h.Source("geo")
	h.NoteQuarantined("geo", 7)
	s = newTestServer(t, Options{Health: h})
	w := do(t, s, "/readyz")
	if w.Code != http.StatusOK {
		t.Fatalf("degraded readyz: %d", w.Code)
	}
	ready := decode[ReadyResponse](t, w)
	if !ready.Ready || len(ready.DegradedSrc) != 1 || ready.DegradedSrc[0] != "geo" {
		t.Fatalf("degraded readyz resp = %+v", ready)
	}
	if ready.Sources[0].Quarantined != 7 {
		t.Fatalf("source row = %+v", ready.Sources[0])
	}

	// An unavailable source flips readiness to 503.
	h.MarkUnavailable("orbis", "timeout budget exhausted")
	w = do(t, s, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("unavailable readyz: %d", w.Code)
	}
	ready = decode[ReadyResponse](t, w)
	if ready.Ready || len(ready.Unavailable) != 1 || ready.Unavailable[0] != "orbis" {
		t.Fatalf("unavailable readyz resp = %+v", ready)
	}
}

func TestResponseCacheReplay(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: 8})

	first := do(t, s, "/v1/asn/100")
	second := do(t, s, "/v1/asn/100")
	if first.Body.String() != second.Body.String() || first.Code != second.Code {
		t.Fatal("cached replay differs from original")
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after replay = %+v", st)
	}

	// Equivalent requests canonicalize onto one entry.
	do(t, s, "/v1/country/mm")
	do(t, s, "/v1/country/MM")
	st = s.CacheStats()
	if st.Hits != 2 {
		t.Fatalf("canonicalized country lookups missed the cache: %+v", st)
	}

	// A 400 quotes the raw input, and equivalent spellings share a key,
	// so a 400 is never cached...
	do(t, s, "/v1/asn/abc")
	do(t, s, "/v1/asn/abc")
	if st = s.CacheStats(); st.Hits != 2 || st.Size != 2 {
		t.Fatalf("a 400 went through the cache: %+v", st)
	}
	// ...while a 404 miss names only the canonical ASN and is replayed.
	miss := do(t, s, "/v1/asn/0999999")
	again := do(t, s, "/v1/asn/999999")
	if miss.Code != http.StatusNotFound || again.Body.String() != miss.Body.String() {
		t.Fatalf("miss replay: %d %s vs %s", miss.Code, miss.Body, again.Body)
	}
	if st = s.CacheStats(); st.Hits != 3 {
		t.Fatalf("miss replay missed the cache: %+v", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{CacheSize: 8, Clock: testClock(5)})
	for i := 0; i < 3; i++ {
		do(t, s, "/v1/asn/100")
	}
	do(t, s, "/v1/asn/999")

	w := do(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	snap := decode[Snapshot](t, w)
	if snap.InFlight != 1 { // the /metrics request itself
		t.Fatalf("in-flight = %d", snap.InFlight)
	}
	var asn *EndpointSnapshot
	for i := range snap.Endpoints {
		if snap.Endpoints[i].Endpoint == "/v1/asn" {
			asn = &snap.Endpoints[i]
		}
	}
	if asn == nil || asn.Requests != 4 {
		t.Fatalf("asn endpoint snapshot = %+v", asn)
	}
	if asn.ByStatus["200"] != 3 || asn.ByStatus["404"] != 1 {
		t.Fatalf("status mix = %+v", asn.ByStatus)
	}
	if asn.MeanUnits <= 0 || asn.MaxUnits <= 0 {
		t.Fatalf("latency accounting empty: %+v", asn)
	}
	if snap.Cache.Hits == 0 {
		t.Fatalf("cache accounting missing from snapshot: %+v", snap.Cache)
	}

	// Without a health report the build-timing fields stay absent.
	if snap.BuildWorkers != 0 || len(snap.BuildNodes) != 0 {
		t.Fatalf("unexpected build timings without health: %+v", snap)
	}
}

func TestMetricsBuildTimings(t *testing.T) {
	h := runner.NewHealth(0)
	h.Workers = 4
	h.Timings = []runner.NodeTiming{
		{Node: "world", Wall: 1500 * 1000}, // 1.5ms in ns
		{Node: "stage1", Wall: 250 * 1000},
	}
	s := newTestServer(t, Options{Health: h})

	snap := decode[Snapshot](t, do(t, s, "/metrics"))
	if snap.BuildWorkers != 4 {
		t.Fatalf("build workers = %d, want 4", snap.BuildWorkers)
	}
	if len(snap.BuildNodes) != 2 || snap.BuildNodes[0].Node != "world" {
		t.Fatalf("build nodes = %+v", snap.BuildNodes)
	}
	if snap.BuildNodes[0].WallMS != 1.5 {
		t.Fatalf("world wall = %v ms, want 1.5", snap.BuildNodes[0].WallMS)
	}
}

func TestLatencyBuckets(t *testing.T) {
	cases := []struct {
		units int64
		want  int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1 << 20, latencyBuckets - 1}}
	for _, c := range cases {
		if got := bucketOf(c.units); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.units, got, c.want)
		}
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	s := newTestServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("live request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over the wire: %d", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}
