package fleet

import "sync/atomic"

// Metrics is the router's fleet-level accounting: how many legs the
// traffic costs, how they fail (failed legs, hedges) and how the router
// defends itself (shed requests, breaker denials).
type Metrics struct {
	requests       atomic.Uint64
	shed           atomic.Uint64
	legs           atomic.Uint64
	legFailures    atomic.Uint64
	hedges         atomic.Uint64
	breakerDenials atomic.Uint64
}

// MetricsSnapshot is the /metrics JSON shape.
type MetricsSnapshot struct {
	Requests       uint64 `json:"requests_total"`
	Shed           uint64 `json:"shed_total"`
	Legs           uint64 `json:"legs_total"`
	LegFailures    uint64 `json:"leg_failures_total"`
	Hedges         uint64 `json:"hedges_total"`
	BreakerDenials uint64 `json:"breaker_denials_total"`
}

// Snapshot reads the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Requests:       m.requests.Load(),
		Shed:           m.shed.Load(),
		Legs:           m.legs.Load(),
		LegFailures:    m.legFailures.Load(),
		Hedges:         m.hedges.Load(),
		BreakerDenials: m.breakerDenials.Load(),
	}
}
