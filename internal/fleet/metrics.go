package fleet

import (
	"strings"
	"sync/atomic"

	"stateowned/internal/serve"
)

// Metrics is the router's leg accounting — what its serve.Spine cannot
// see: how many replica legs the traffic costs, how they fail (failed
// legs, hedges) and how often an open breaker refused one. Requests,
// statuses, latencies, shedding and panics live in the spine's request
// registry.
type Metrics struct {
	registry       *serve.Metrics
	legs           atomic.Uint64
	legFailures    atomic.Uint64
	hedges         atomic.Uint64
	breakerDenials atomic.Uint64
}

// MetricsSnapshot is the /metrics "fleet" block. Requests is not part
// of it — the registry rows carry it on the wire — but rides along so
// legs per read can be computed from one snapshot.
type MetricsSnapshot struct {
	// Requests counts the router's /v1 reads in the spine's registry.
	Requests       uint64 `json:"-"`
	Legs           uint64 `json:"legs_total"`
	LegFailures    uint64 `json:"leg_failures_total"`
	Hedges         uint64 `json:"hedges_total"`
	BreakerDenials uint64 `json:"breaker_denials_total"`
}

// Snapshot reads the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Legs:           m.legs.Load(),
		LegFailures:    m.legFailures.Load(),
		Hedges:         m.hedges.Load(),
		BreakerDenials: m.breakerDenials.Load(),
	}
	for _, e := range m.registry.Snapshot().Endpoints {
		if strings.HasPrefix(e.Endpoint, "/v1/") {
			snap.Requests += e.Requests
		}
	}
	return snap
}
