package fleet

// Shared fleet-test infrastructure: every test fleet runs shards as
// in-process http.Handlers behind a custom RoundTripper keyed by fake
// host names — no listeners, no ports, no real sleeps — so the suites
// (including the rolling-reload soak) are deterministic under -race and
// fast enough for -short.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stateowned"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
)

// neverAfter is the virtual timer for paths that must not fire in a
// test: select on a nil channel blocks forever, so hedge timers and leg
// deadlines stay silent unless a test drives them explicitly.
func neverAfter(time.Duration) (<-chan time.Time, func() bool) { return nil, noStop }

// noStop is the stop of a hand-fired After: there is no timer to stop.
func noStop() bool { return false }

// handlerTransport maps fake host names to in-process handlers, with a
// per-host down flag (simulated crash: instant transport error) and an
// optional intercept hook for crafting failures on specific calls.
type handlerTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]*atomic.Bool

	// intercept, when non-nil, may return (response, true) to answer the
	// request itself or (nil, true) to fail it with a transport error.
	intercept func(req *http.Request) (*http.Response, bool)
}

func newHandlerTransport() *handlerTransport {
	return &handlerTransport{
		handlers: map[string]http.Handler{},
		down:     map[string]*atomic.Bool{},
	}
}

func (ht *handlerTransport) register(host string, h http.Handler) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	ht.handlers[host] = h
	ht.down[host] = &atomic.Bool{}
}

func (ht *handlerTransport) setDown(host string, down bool) {
	ht.mu.Lock()
	flag := ht.down[host]
	ht.mu.Unlock()
	flag.Store(down)
}

func (ht *handlerTransport) setIntercept(fn func(req *http.Request) (*http.Response, bool)) {
	ht.mu.Lock()
	ht.intercept = fn
	ht.mu.Unlock()
}

func (ht *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ht.mu.Lock()
	h := ht.handlers[req.URL.Host]
	flag := ht.down[req.URL.Host]
	icept := ht.intercept
	ht.mu.Unlock()
	if icept != nil {
		if resp, handled := icept(req); handled {
			if resp == nil {
				return nil, fmt.Errorf("injected transport failure for %s %s", req.Method, req.URL)
			}
			return resp, nil
		}
	}
	if h == nil {
		return nil, fmt.Errorf("no handler for host %q", req.URL.Host)
	}
	if flag != nil && flag.Load() {
		return nil, fmt.Errorf("host %q is down", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// craftedResponse builds a minimal *http.Response for intercept hooks.
func craftedResponse(status int, headers map[string]string, body string) *http.Response {
	h := http.Header{}
	for k, v := range headers {
		h.Set(k, v)
	}
	return &http.Response{
		StatusCode: status,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

// testFleet is a fully wired in-process fleet.
type testFleet struct {
	part      Partition
	shards    []*ShardServer
	clients   []ShardClient
	router    *Router
	coord     *Coordinator
	transport *handlerTransport
}

// fleetConfig tweaks buildFleet.
type fleetConfig struct {
	seed        uint64
	scale       float64
	shards      int
	retain      int
	incremental bool
	hijack      float64
	rov         float64
	routerOpt   func(*RouterOptions)
	coordOpt    func(*CoordinatorOptions)
}

// shardStore builds one shard's snapshot store; every store in a fleet
// gets the identical Base config, so their generations are identical by
// the store's determinism guarantee.
func shardStore(cfg fleetConfig) *snapshot.Store {
	return snapshot.New(snapshot.Options{
		Base: stateowned.Config{
			Seed: cfg.seed, Scale: cfg.scale,
			HijackSeverity: cfg.hijack, ROVFraction: cfg.rov,
		},
		Retain:      cfg.retain,
		Incremental: cfg.incremental,
	})
}

// buildFleet assembles a fleet of in-process shards, a router and a
// coordinator over the handler transport. The partition is computed
// from shard 0's generation-0 dataset — exactly what production does.
func buildFleet(t testing.TB, cfg fleetConfig) *testFleet {
	t.Helper()
	if cfg.scale == 0 {
		cfg.scale = 0.05
	}
	if cfg.seed == 0 {
		cfg.seed = 42
	}
	if cfg.retain == 0 {
		cfg.retain = 8
	}
	tr := newHandlerTransport()
	httpClient := &http.Client{Transport: tr}

	stores := make([]*snapshot.Store, cfg.shards)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i] = shardStore(cfg)
		}(i)
	}
	wg.Wait()

	part, err := ComputePartition(stores[0].Current().Result.Dataset, cfg.shards)
	if err != nil {
		t.Fatalf("computing partition: %v", err)
	}

	tf := &testFleet{part: part, transport: tr}
	for i := range stores {
		sh := NewShardServer(stores[i], part, i, serve.Options{})
		tf.shards = append(tf.shards, sh)
		host := fmt.Sprintf("shard%d", i)
		tr.register(host, sh)
		tf.clients = append(tf.clients, ShardClient{
			Index: i,
			Base:  "http://" + host,
			HTTP:  httpClient,
		})
	}

	ropts := RouterOptions{
		Partition: part,
		Shards:    tf.clients,
		After:     neverAfter,
	}
	if cfg.routerOpt != nil {
		cfg.routerOpt(&ropts)
	}
	tf.router, err = NewRouter(ropts)
	if err != nil {
		t.Fatalf("building router: %v", err)
	}

	copts := CoordinatorOptions{}
	if cfg.coordOpt != nil {
		cfg.coordOpt(&copts)
	}
	tf.coord = NewCoordinator(tf.router, tf.clients, copts)
	return tf
}

// get issues one request against the router and returns the recorder.
func (tf *testFleet) get(path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	tf.router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}
