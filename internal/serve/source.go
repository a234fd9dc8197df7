package serve

import (
	"stateowned/internal/churn"
	"stateowned/internal/graph"
	"stateowned/internal/hijack"
	"stateowned/internal/runner"
)

// GenStatus classifies a generation-number lookup against a Source.
type GenStatus uint8

// Generation lookup outcomes.
const (
	// GenOK means the generation is retained and servable.
	GenOK GenStatus = iota
	// GenUnknown means the generation has never been built: it lies in
	// the future of the live generation, or the source only ever has
	// one generation (HTTP 404).
	GenUnknown
	// GenEvicted means the generation existed but has left the
	// retention ring; its answers are gone for good (HTTP 410).
	GenEvicted
)

// Provenance describes how a generation's dataset came to be; it is
// reported verbatim on /v1/dataset.
type Provenance struct {
	// Origin is "static" for a single build-once index or
	// "generational" for a snapshot-store generation.
	Origin string `json:"origin"`
	// Seed and Scale echo the pipeline configuration of the build.
	Seed  uint64  `json:"seed,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// ChurnSeed and YearsPerGen describe the ownership-churn schedule
	// that separates generations (generational sources only).
	ChurnSeed   uint64 `json:"churn_seed,omitempty"`
	YearsPerGen int    `json:"years_per_generation,omitempty"`
	// Events counts the churn events applied to reach this generation
	// from the previous one; TotalEvents is cumulative since
	// generation 0.
	Events      int `json:"churn_events,omitempty"`
	TotalEvents int `json:"total_churn_events,omitempty"`
}

// View is one dataset generation as the server sees it: the immutable
// index to answer from, the health report of the pipeline run that
// built it, and build provenance. A View (and everything it reaches)
// is immutable once published, so a request that resolved its View
// keeps answering from that generation even if a swap happens
// mid-flight — no torn reads by construction.
type View struct {
	// Gen is the generation number (0 = the initial build).
	Gen int
	// Index is the compiled lookup structure all /v1 answers come from.
	Index *Index
	// Health is the generation build's degradation report (nil = no
	// health information; /readyz then always reports ready).
	Health *runner.Health
	// Provenance describes the build for /v1/dataset.
	Provenance Provenance
	// Graph is the generation's compiled relationship index behind the
	// /v1/graph/* endpoints. Nil when the source carries no topology
	// (static index-only sources); the graph endpoints then answer 404.
	Graph *graph.Graph
	// Hijacks is the generation's routing-adversary detection report
	// behind /v1/hijacks. Nil when the source carries no routing
	// observations (static index-only sources); the endpoint then
	// answers 404. An honest generation carries an empty (non-nil)
	// report.
	Hijacks *hijack.Report
}

// ReloadStatus is a source's rebuild-state report, surfaced verbatim
// on /readyz and /metrics. Degraded means the last rebuild (or several)
// was quarantined by the validation gate and the source is serving its
// last-known-good generation — the server stays ready (it is still
// answering) but operators can see why the dataset stopped advancing.
type ReloadStatus struct {
	// Reloading reports whether a rebuild is in flight. The old
	// generation keeps serving (and /readyz stays green) while it runs.
	Reloading bool `json:"reloading"`
	// Degraded reports that the newest rebuild failed validation (or
	// panicked) and was quarantined; Reason says why.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"degraded_reason,omitempty"`
	// ConsecutiveFailures counts quarantined rebuilds since the last
	// successful swap; GaveUp means the reload loop exhausted its
	// failure budget and stopped retrying.
	ConsecutiveFailures int  `json:"consecutive_failures,omitempty"`
	GaveUp              bool `json:"gave_up,omitempty"`
	// Memoized-rebuild counters, cumulative across all rebuilds (zero
	// for static sources). NodesReused/NodesRebuilt count build-graph
	// nodes restored from the previous generation's memo vs executed;
	// IndexReuses/GraphReuses count whole compiled structures adopted
	// unchanged. All of it is observability metadata — never part of
	// dataset bytes or determinism comparisons.
	NodesReused  uint64 `json:"nodes_reused,omitempty"`
	NodesRebuilt uint64 `json:"nodes_rebuilt,omitempty"`
	IndexReuses  uint64 `json:"index_reuses,omitempty"`
	GraphReuses  uint64 `json:"graph_reuses,omitempty"`
	// Archive reports that the source persists generations to the
	// durable on-disk archive. Recovered means this process warm-started
	// from it, with RecoveredGen the newest adopted generation (the
	// field is elided when zero; Recovered disambiguates a recovered
	// generation 0). The counters mirror the archive's write/verify/
	// quarantine ledger, and ArchiveLastError is the most recent write
	// failure — durability degraded, serving unaffected.
	Archive              bool   `json:"archive,omitempty"`
	Recovered            bool   `json:"recovered,omitempty"`
	RecoveredGen         int    `json:"recovered_gen,omitempty"`
	SegmentsVerified     uint64 `json:"segments_verified,omitempty"`
	SegmentsQuarantined  uint64 `json:"segments_quarantined,omitempty"`
	ArchiveWrites        uint64 `json:"archive_writes,omitempty"`
	ArchiveWriteFailures uint64 `json:"archive_write_failures,omitempty"`
	ArchiveLastError     string `json:"archive_last_error,omitempty"`
}

// Source supplies the server's generations. Implementations must be
// safe for arbitrary request concurrency: Current runs on every request
// and must be cheap, and the generation it returns must switch
// atomically between complete views — the hot-reload soak test hammers
// this contract under the race detector.
type Source interface {
	// Current returns the live generation.
	Current() *View
	// Generation resolves a pinned generation number to a retained
	// view, or reports why it cannot be served.
	Generation(n int) (*View, GenStatus)
	// Diff audits `from`'s dataset against `to`'s ground truth —
	// churn.RunAudit across two retained generations. The bool is false
	// when the source keeps no ground truth to audit against (static
	// sources).
	Diff(from, to *View) (*churn.Audit, bool)
	// ReloadStatus reports the rebuild state: in-flight, and whether
	// the source is degraded to last-known-good after quarantined
	// rebuilds.
	ReloadStatus() ReloadStatus
}

// staticSource adapts a single immutable Index — the build-once/serve-
// many deployment with no churn schedule — to the Source interface:
// generation 0, forever.
type staticSource struct{ view View }

// Current returns the one and only generation.
func (s *staticSource) Current() *View { return &s.view }

// Generation resolves only generation 0; nothing is ever evicted.
func (s *staticSource) Generation(n int) (*View, GenStatus) {
	if n == 0 {
		return &s.view, GenOK
	}
	return nil, GenUnknown
}

// Diff is unavailable: a static source retains no ground-truth worlds.
func (s *staticSource) Diff(from, to *View) (*churn.Audit, bool) { return nil, false }

// ReloadStatus is always the zero report: static sources never rebuild
// and can never degrade.
func (s *staticSource) ReloadStatus() ReloadStatus { return ReloadStatus{} }
