package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock supplies monotonically non-decreasing time in virtual units.
// Latency accounting runs on virtual units for the same reason the
// runner's backoff does: tests and chaos replays stay deterministic
// when they inject a counting clock, while the default clock maps a
// virtual unit to a microsecond of wall time.
type Clock func() int64

// WallClock is the default production clock: one virtual unit per
// microsecond.
func WallClock() int64 { return int64(time.Since(wallEpoch) / time.Microsecond) }

var wallEpoch = time.Now()

// latencyBuckets is the number of exponential histogram buckets: bucket
// i counts requests with latency < 2^i virtual units, the last bucket
// is the overflow.
const latencyBuckets = 16

// endpointStats accumulates one endpoint's counters.
type endpointStats struct {
	requests   uint64
	byStatus   map[int]uint64
	hist       [latencyBuckets]uint64
	totalUnits int64
	maxUnits   int64
	// Containment counters: requests refused by admission control,
	// requests that overran their deadline, handler panics converted to
	// 500s. All three also appear in byStatus (503/504/500) — these
	// separate the overload-policy outcomes from organic errors.
	shed             uint64
	deadlineExceeded uint64
	panics           uint64
}

// Metrics is the request registry a Spine keeps: per-endpoint request
// counts and latency histograms (virtual units), plus an in-flight
// gauge. Cache accounting lives on the Cache itself and is merged into
// the server's /metrics body by the server.
type Metrics struct {
	clock Clock

	mu        sync.Mutex
	inflight  int
	endpoints map[string]*endpointStats
	order     []string
}

// NewMetrics creates a registry on the given clock (nil selects
// WallClock).
func NewMetrics(clock Clock) *Metrics {
	if clock == nil {
		clock = WallClock
	}
	return &Metrics{clock: clock, endpoints: map[string]*endpointStats{}}
}

// Begin marks a request as in flight and returns its start timestamp.
func (m *Metrics) Begin() int64 {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
	return m.clock()
}

// End records a finished request against an endpoint: status class,
// latency bucket, totals, and the in-flight gauge.
func (m *Metrics) End(endpoint string, status int, start int64) {
	elapsed := m.clock() - start
	if elapsed < 0 {
		elapsed = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	st := m.stat(endpoint)
	st.requests++
	st.byStatus[status]++
	st.hist[bucketOf(elapsed)]++
	st.totalUnits += elapsed
	if elapsed > st.maxUnits {
		st.maxUnits = elapsed
	}
}

// stat returns (creating on first use) an endpoint's row; callers hold
// m.mu.
func (m *Metrics) stat(endpoint string) *endpointStats {
	st := m.endpoints[endpoint]
	if st == nil {
		st = &endpointStats{byStatus: map[int]uint64{}}
		m.endpoints[endpoint] = st
		m.order = append(m.order, endpoint)
	}
	return st
}

// Shed records a request refused by admission control.
func (m *Metrics) Shed(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stat(endpoint).shed++
}

// DeadlineExceeded records a request that overran its handler budget.
func (m *Metrics) DeadlineExceeded(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stat(endpoint).deadlineExceeded++
}

// Panicked records a handler panic contained by the per-request panic
// barrier.
func (m *Metrics) Panicked(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stat(endpoint).panics++
}

// bucketOf maps a latency to its exponential bucket: bucket i holds
// latencies in [2^(i-1), 2^i), bucket 0 holds < 1.
func bucketOf(units int64) int {
	for i := 0; i < latencyBuckets-1; i++ {
		if units < 1<<uint(i) {
			return i
		}
	}
	return latencyBuckets - 1
}

// EndpointSnapshot is one endpoint's row of a metrics snapshot.
type EndpointSnapshot struct {
	Endpoint  string                 `json:"endpoint"`
	Requests  uint64                 `json:"requests"`
	ByStatus  map[string]uint64      `json:"by_status"`
	MeanUnits float64                `json:"mean_latency_units"`
	MaxUnits  int64                  `json:"max_latency_units"`
	Histogram [latencyBuckets]uint64 `json:"latency_histogram"`
	// Containment outcomes (see endpointStats).
	Shed             uint64 `json:"shed,omitempty"`
	DeadlineExceeded uint64 `json:"deadline_exceeded,omitempty"`
	Panics           uint64 `json:"panics,omitempty"`
}

// BuildNodeTiming is one pipeline build node's measured wall time as
// exposed on /metrics — the serving-side view of runner.NodeTiming.
// Reused marks nodes that were restored from the previous generation's
// artifact memo instead of executed.
type BuildNodeTiming struct {
	Node   string  `json:"node"`
	WallMS float64 `json:"wall_ms"`
	Reused bool    `json:"reused,omitempty"`
}

// RequestStats is the registry state at one instant: the request
// accounting every /metrics body — single-process server, fleet
// replica and fleet router alike — carries.
type RequestStats struct {
	InFlight  int                `json:"in_flight"`
	Requests  uint64             `json:"requests"`
	Endpoints []EndpointSnapshot `json:"endpoints"`
	// Overload-policy totals across endpoints: ShedFraction is
	// ShedTotal / Requests — the headline "how much load are we
	// refusing" number the soak tests and dashboards read.
	ShedTotal             uint64  `json:"shed_total"`
	ShedFraction          float64 `json:"shed_fraction"`
	DeadlineExceededTotal uint64  `json:"deadline_exceeded_total"`
	PanicsTotal           uint64  `json:"panics_total"`
}

// Snapshot is the server's /metrics body: the registry's
// RequestStats, cache and admission accounting, the live generation
// with the source's ReloadStatus, and the build profile of the
// pipeline run that produced it (BuildWorkers and BuildNodes, absent
// without a health report).
type Snapshot struct {
	RequestStats
	Cache CacheStats `json:"cache"`
	// Admission is the limiter's own accounting (absent when admission
	// control is off).
	Admission  *AdmissionStats `json:"admission,omitempty"`
	Generation int             `json:"generation"`
	ReloadStatus
	BuildWorkers int               `json:"build_workers,omitempty"`
	BuildNodes   []BuildNodeTiming `json:"build_nodes,omitempty"`
}

// Snapshot captures the registry, endpoints sorted by name for a
// stable JSON body.
func (m *Metrics) Snapshot() RequestStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := RequestStats{InFlight: m.inflight}
	names := append([]string(nil), m.order...)
	sort.Strings(names)
	for _, name := range names {
		st := m.endpoints[name]
		es := EndpointSnapshot{
			Endpoint:         name,
			Requests:         st.requests,
			ByStatus:         map[string]uint64{},
			MaxUnits:         st.maxUnits,
			Histogram:        st.hist,
			Shed:             st.shed,
			DeadlineExceeded: st.deadlineExceeded,
			Panics:           st.panics,
		}
		for code, n := range st.byStatus {
			es.ByStatus[fmt.Sprintf("%d", code)] = n
		}
		if st.requests > 0 {
			es.MeanUnits = float64(st.totalUnits) / float64(st.requests)
		}
		snap.Requests += st.requests
		snap.ShedTotal += st.shed
		snap.DeadlineExceededTotal += st.deadlineExceeded
		snap.PanicsTotal += st.panics
		snap.Endpoints = append(snap.Endpoints, es)
	}
	if snap.Requests > 0 {
		snap.ShedFraction = float64(snap.ShedTotal) / float64(snap.Requests)
	}
	return snap
}
