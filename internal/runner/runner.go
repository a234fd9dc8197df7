// Package runner is the degradation-aware execution substrate for the
// pipeline: retry with deterministic backoff for transient faults, a
// source whose attempts run out tripped into "unavailable", and a
// structured Health report recording per-source status, records lost
// or quarantined, retries spent and stages that ran degraded. The contract it enforces is the production one: the pipeline
// completes on whatever sources survive, reports what it lost, and never
// panics.
//
// Time is simulated: backoff delays are accounted in abstract units
// (recorded in the Health report) rather than slept, so chaos runs stay
// deterministic and fast while the retry arithmetic matches what a wall
// clock deployment would do.
package runner

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"stateowned/internal/faults"
	"stateowned/internal/report"
)

// Status is a source's condition after the run.
type Status uint8

// Source conditions, ordered by increasing damage.
const (
	Healthy Status = iota
	Degraded
	Unavailable
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	default:
		return "unavailable"
	}
}

// Backoff is a deterministic exponential-backoff policy: the n-th retry
// waits BaseUnits<<(n-1) units, capped at MaxUnits.
type Backoff struct {
	MaxAttempts int
	BaseUnits   int
	MaxUnits    int
}

// DefaultBackoff is the policy substrate builds run with: up to four
// attempts, delays 1, 2, 4 units.
func DefaultBackoff() Backoff { return Backoff{MaxAttempts: 4, BaseUnits: 1, MaxUnits: 8} }

// Delay returns the backoff after the given attempt (1-based):
// BaseUnits doubled per attempt, saturating at MaxUnits (at the largest
// int when MaxUnits is 0) for any attempt count, however large.
func (b Backoff) Delay(attempt int) int {
	limit := b.MaxUnits
	if limit <= 0 {
		limit = math.MaxInt
	}
	d := b.BaseUnits
	for ; attempt > 1 && d > 0 && d < limit; attempt-- {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return min(d, limit)
}

// SourceHealth is one data source's row of the Health report.
type SourceHealth struct {
	Name   string
	Status Status
	// Attempts is how many build attempts ran; Retries how many of them
	// were retries after a transient failure; BackoffUnits the simulated
	// wait they cost.
	Attempts     int
	Retries      int
	BackoffUnits int
	// Dropped counts records silently lost (outages, missing records);
	// Corrupted counts records damaged in flight; Quarantined counts the
	// damaged records the validation pass caught and removed.
	Dropped     int
	Corrupted   int
	Quarantined int
	LastError   string
}

// degrade raises the status to at least s (never lowers it).
func (sh *SourceHealth) degrade(s Status) {
	if s > sh.Status {
		sh.Status = s
	}
}

// StageHealth records whether a pipeline stage ran degraded and why.
type StageHealth struct {
	Name     string
	Degraded bool
	Note     string
}

// NodeTiming is one build-graph node's measured wall time. Timings are
// measurement, not simulation: they vary run to run and machine to
// machine, so they are kept out of Render (the diffable report) and out
// of determinism comparisons, and surfaced separately (RenderTimings,
// /metrics).
type NodeTiming struct {
	Node string
	Wall time.Duration
	// Reused marks a node whose artifact was restored from the previous
	// generation's memo instead of rebuilt.
	// Like Wall it is build metadata: excluded from Render and from
	// determinism comparisons.
	Reused bool
}

// Health is the structured degradation report attached to a Result.
// Its mutating methods are safe for concurrent use: with the parallel
// build scheduler, substrate nodes report damage from pool goroutines.
// Each source row is still owned by exactly one node, so the row's
// fields need no lock of their own — only the shared map, order and
// stage list do.
type Health struct {
	// Severity echoes the fault plan's severity (0 = pristine run).
	Severity float64
	// Workers records the scheduler pool size the run executed with
	// (1 = the canonical serial schedule).
	Workers int
	Stages  []StageHealth
	// Timings lists per-build-node wall time in build-graph order.
	Timings []NodeTiming

	mu      sync.Mutex
	sources map[string]*SourceHealth
	order   []string
}

// NewHealth creates an empty report for a run at the given severity.
func NewHealth(severity float64) *Health {
	return &Health{Severity: severity, sources: map[string]*SourceHealth{}}
}

// source is the lock-free row lookup; callers hold h.mu.
func (h *Health) source(name string) *SourceHealth {
	sh := h.sources[name]
	if sh == nil {
		sh = &SourceHealth{Name: name}
		h.sources[name] = sh
		h.order = append(h.order, name)
	}
	return sh
}

// Source returns (creating on first use) the named source's row.
func (h *Health) Source(name string) *SourceHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.source(name)
}

// Sources lists the rows in first-touch order.
func (h *Health) Sources() []*SourceHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*SourceHealth, 0, len(h.order))
	for _, name := range h.order {
		out = append(out, h.sources[name])
	}
	return out
}

// NoteDamage records injection damage against a source and degrades its
// status accordingly.
func (h *Health) NoteDamage(source string, dmg faults.Damage) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.source(source)
	sh.Dropped += dmg.Dropped
	sh.Corrupted += dmg.Corrupted
	if !dmg.Zero() {
		sh.degrade(Degraded)
	}
}

// NoteQuarantined records how many corrupt records validation removed.
func (h *Health) NoteQuarantined(source string, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.source(source)
	sh.Quarantined += n
	if n > 0 {
		sh.degrade(Degraded)
	}
}

// MarkUnavailable trips a source to unavailable with a reason.
func (h *Health) MarkUnavailable(source, reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.source(source)
	sh.degrade(Unavailable)
	if reason != "" {
		sh.LastError = reason
	}
}

// MarkStage records a stage outcome. When stages run inside parallel
// scheduler nodes, callers must buffer their notes per node and flush
// them in canonical node order — concurrent MarkStage calls are safe
// but their interleaving is not deterministic.
func (h *Health) MarkStage(name string, degraded bool, note string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.Stages = append(h.Stages, StageHealth{Name: name, Degraded: degraded, Note: note})
}

// Ready is the serving-readiness verdict over this report: true unless
// some source went unavailable. Degraded-but-present sources still
// serve — they are listed, not disqualifying. /readyz and the snapshot
// store's generation health both key off this.
func (h *Health) Ready() bool { return len(h.UnavailableSources()) == 0 }

// DegradedSources lists sources whose status is not healthy.
func (h *Health) DegradedSources() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, name := range h.order {
		if h.sources[name].Status != Healthy {
			out = append(out, name)
		}
	}
	return out
}

// UnavailableSources lists sources whose circuit tripped.
func (h *Health) UnavailableSources() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, name := range h.order {
		if h.sources[name].Status == Unavailable {
			out = append(out, name)
		}
	}
	return out
}

// Quarantined totals the records validation removed across sources.
func (h *Health) Quarantined() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, sh := range h.sources {
		n += sh.Quarantined
	}
	return n
}

// Dropped totals the records silently lost across sources.
func (h *Health) Dropped() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, sh := range h.sources {
		n += sh.Dropped
	}
	return n
}

// Retries totals retry attempts across sources.
func (h *Health) Retries() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, sh := range h.sources {
		n += sh.Retries
	}
	return n
}

// DegradedStages lists the stages that ran degraded.
func (h *Health) DegradedStages() []StageHealth {
	var out []StageHealth
	for _, st := range h.Stages {
		if st.Degraded {
			out = append(out, st)
		}
	}
	return out
}

// Render formats the report as a diffable plain-text table.
func (h *Health) Render() string {
	var b strings.Builder
	t := report.NewTable(
		fmt.Sprintf("Pipeline health (fault severity %.2f)", h.Severity),
		"source", "status", "attempts", "retries", "backoff", "dropped", "corrupted", "quarantined", "note")
	for _, sh := range h.Sources() {
		t.AddRow(sh.Name, sh.Status.String(), sh.Attempts, sh.Retries,
			sh.BackoffUnits, sh.Dropped, sh.Corrupted, sh.Quarantined, sh.LastError)
	}
	b.WriteString(t.String())
	if len(h.Stages) > 0 {
		b.WriteString("\nstages:\n")
		for _, st := range h.Stages {
			state := "ok"
			if st.Degraded {
				state = "degraded"
			}
			fmt.Fprintf(&b, "  %-20s %-9s %s\n", st.Name, state, st.Note)
		}
	}
	h.mu.Lock()
	rows := len(h.order)
	h.mu.Unlock()
	fmt.Fprintf(&b, "\nsummary: %d/%d sources degraded (%d unavailable), %d records dropped, %d quarantined, %d retries\n",
		len(h.DegradedSources()), rows, len(h.UnavailableSources()),
		h.Dropped(), h.Quarantined(), h.Retries())
	return b.String()
}

// RenderTimings formats the per-node wall-time profile as a table. It
// lives outside Render because wall times are nondeterministic: Render
// stays byte-diffable across runs, timings are observability. A "built"
// column distinguishes rebuilt nodes from ones restored out of the
// previous generation's memo.
func (h *Health) RenderTimings() string {
	t := report.NewTable(
		fmt.Sprintf("Build-node wall time (%d workers)", h.Workers),
		"node", "wall", "built")
	var total time.Duration
	reused := 0
	for _, nt := range h.Timings {
		built := "built"
		if nt.Reused {
			built = "reused"
			reused++
		}
		t.AddRow(nt.Node, nt.Wall.Round(time.Microsecond).String(), built)
		total += nt.Wall
	}
	t.AddRow("(sum of nodes)", total.Round(time.Microsecond).String(),
		fmt.Sprintf("%d/%d reused", reused, len(h.Timings)))
	return t.String()
}

// Do executes one substrate build under the hardened contract: up to
// Backoff.MaxAttempts attempts, retrying only transient failures. On
// success it returns (value, true); when the attempts run out or a
// permanent error occurs it records the source as unavailable and
// returns (zero, false) — the caller degrades gracefully instead of
// propagating the failure.
func Do[T any](h *Health, bo Backoff, source string, build func(attempt int) (T, error)) (T, bool) {
	sh := h.Source(source)
	var zero T
	for attempt := 1; attempt <= bo.MaxAttempts; attempt++ {
		sh.Attempts = attempt
		v, err := build(attempt)
		if err == nil {
			if sh.Retries > 0 {
				sh.degrade(Degraded)
			}
			return v, true
		}
		sh.LastError = err.Error()
		if !faults.IsTransient(err) {
			break
		}
		if attempt < bo.MaxAttempts {
			sh.Retries++
			sh.BackoffUnits += bo.Delay(attempt)
		}
	}
	sh.degrade(Unavailable)
	return zero, false
}
