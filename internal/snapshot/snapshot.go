// Package snapshot is the generational dataset store behind hot-reload
// serving: it owns a sequence of (world, pipeline Result, serving
// index) generations, evolves the ground-truth world between them with
// the seeded ownership-churn model, rebuilds each generation through
// the hardened pipeline (reusing its parent's artifact memo wherever
// the inputs did not churn), and publishes the result to live HTTP
// traffic with a single atomic pointer swap — in-flight requests finish
// on the generation they resolved, new requests see the new one, and
// nothing is ever torn.
//
// The paper's dataset is a snapshot of a moving target (the authors
// date theirs April 2020 and measure how fast it decays); this package
// models the operational answer: a serving layer whose dataset advances
// through churned generations while staying continuously queryable,
// with a bounded ring of retained generations for pinned queries and
// an audit diff between any two retained generations.
//
// Advancing costs one churn step, not g: generation g's world is its
// live parent's world evolved by one seeded Evolve step — the
// parent's immutable structure shared, its ownership graph cloned — so
// the parent stays frozen for the readers pinned to it. Only where no
// live-built parent exists (generation 0, a parent recovered from the
// archive, the differential oracle) is the world rebuilt from scratch
// as Generate(Base) + g steps. Determinism is load-bearing: both paths
// must reach the same world, so a generation's content is a pure
// function of (Base config, churn seed, g) — independent of worker
// count, reload timing, map iteration order and of which path built
// it. That is a tested property, not a construction: the world-level
// and memo-vs-oracle chain differentials, the golden chain and the
// offline churn audits enforce it.
//
// Once a generation is superseded its ring slot keeps only what serving
// reads (see Generation), its control table standing in for its world;
// the world and the build state — substrates, stage results and the
// artifact memo — stay with the live generation alone.
package snapshot

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stateowned"
	"stateowned/internal/churn"
	"stateowned/internal/durable"
	"stateowned/internal/rng"
	"stateowned/internal/runner"
	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// yearsPerGen is how many simulated years of churn separate
// consecutive generations.
const yearsPerGen = 1

// DefaultRetain is the retention-ring size when Options.Retain is 0:
// the live generation plus three predecessors stay pinnable.
const DefaultRetain = 4

// DefaultMaxChurnFraction is the validation gate's churn bound when a
// Validation policy is not supplied: a rebuild that replaces more than
// this fraction of the previous generation's state-owned ASN set is
// quarantined — state ownership moves on the timescale of
// privatizations, not of one reload, so a swing that large is far more
// likely a broken build than a real event.
const DefaultMaxChurnFraction = 0.75

// Validation is the reload gate's policy: every freshly built
// generation must pass it before the atomic swap, and a failing (or
// panicking) rebuild is quarantined while the store keeps serving the
// last validated generation. Two invariants are always enforced and not
// configurable — the dataset must be non-empty, and the build's
// pipeline Health must be Ready (no source unavailable).
type Validation struct {
	// MaxChurnFraction bounds dataset churn between consecutive
	// generations, measured as |added ∪ removed state-owned ASNs| /
	// max(1, |previous set|). 0 rejects any change at all (useful as an
	// operational lever to force the degraded path in smoke tests);
	// values >= 1 effectively disable the bound. Must be >= 0.
	MaxChurnFraction float64
	// MaxFailures is how many consecutive quarantined rebuilds Reload
	// tolerates before giving up (serving last-known-good forever and
	// reporting GaveUp). 0 = retry forever.
	MaxFailures int
}

// DefaultReloadBackoff is the retry pacing for quarantined rebuilds:
// the n-th consecutive failure waits Delay(n) seconds — 1, 2, 4, 8,
// ... capped at 60 — before the next attempt (capped exponential,
// reusing the pipeline runner's arithmetic). MaxAttempts is unused
// here — the retry budget is Validation.MaxFailures.
func DefaultReloadBackoff() runner.Backoff {
	return runner.Backoff{MaxAttempts: 1, BaseUnits: 1, MaxUnits: 60}
}

// DefaultValidation is the gate policy used when Options.Validation is
// nil.
func DefaultValidation() Validation {
	return Validation{MaxChurnFraction: DefaultMaxChurnFraction}
}

// normalize clamps nonsense (negative churn bounds or failure budgets)
// into range.
func (v Validation) normalize() Validation {
	if v.MaxChurnFraction < 0 {
		v.MaxChurnFraction = 0
	}
	if v.MaxFailures < 0 {
		v.MaxFailures = 0
	}
	return v
}

// Options configures a Store.
type Options struct {
	// Base is the pipeline configuration every generation is built with.
	// Base.World must be nil — the store owns world construction; it
	// installs each generation's churn-evolved world through that hook.
	Base stateowned.Config
	// ChurnSeed seeds the ownership-churn schedule independently of the
	// world (0 = derive from Base.Seed), so one world can be replayed
	// under different churn histories.
	ChurnSeed uint64
	// Rates sets the churn event probabilities (zero value = DefaultRates).
	Rates churn.Rates
	// Retain bounds the generation ring: how many generations (including
	// the live one) stay resident and pinnable. 0 = DefaultRetain;
	// minimum 1.
	Retain int
	// Validation is the reload gate policy (nil = DefaultValidation).
	// Generation 0 is exempt: with no last-known-good to fall back to,
	// a broken initial build is a startup failure the operator must
	// see, not something to quarantine.
	Validation *Validation
	// After is the timer Reload paces itself with — the reload cadence
	// and the post-quarantine backoff both wait on the channel it
	// returns (nil = time.After). Tests inject a hand-fired channel so
	// retry schedules are deterministic.
	After func(d time.Duration) <-chan time.Time
	// Archive, when non-nil, is the durable generation archive: every
	// committed generation is persisted to it (crash-consistent segment
	// + manifest write), and New adopts the newest verified archived
	// generations for immediate warm-start serving instead of paying a
	// cold generation-0 pipeline build. Archive write failures degrade
	// durability, never availability: the store keeps serving from
	// memory and surfaces the failure counters on /readyz and /metrics.
	Archive *durable.Archive
	// Incremental is ignored: every generation rebuilds through its
	// parent's artifact memo. Like fleet.FullPrefix, it stays only
	// because the benchmark module (perfbench) still uses it.
	Incremental bool
}

// BuildStats reports how much of one generation's build was reused from
// its predecessor's artifact memo. Nothing is reused when the build has
// no live parent (generation 0, or after a recovery). Build metadata
// only: never part of the dataset, rendered health, or determinism
// comparisons.
type BuildStats struct {
	// NodesTotal is how many build-graph nodes the pipeline has;
	// NodesReused how many were restored from the memo instead of built.
	// A topology that rebuilt to its parent's content ran, so it counts
	// as built, though its dependents restore behind it.
	NodesTotal  int
	NodesReused int
	// IndexReused/GraphReused report that the compiled serving index /
	// graph plane were adopted from the previous generation because
	// every input feeding them was unchanged. The graph is adopted
	// whenever cti and as2org restored, so also after a topology that
	// rebuilt to its parent's content.
	IndexReused bool
	GraphReused bool
	// ReusedNodes lists the restored nodes in canonical build order.
	ReusedNodes []string
}

// Generation is one fully built dataset generation: the churn-evolved
// ground truth, the pipeline Result built over it, the compiled serving
// index, and the churn events that separate it from its predecessor.
// All fields are frozen once the generation is published.
//
// A published Generation is never mutated. When a newer generation
// goes live, the superseded one's ring slot is replaced by a trimmed
// copy that keeps what serving, /v1/diff and the archive read — the
// index, the view (graph plane, health, hijacks, provenance), the churn
// events, the build stats, the control table and a minimal Result — and
// lets the world and the build state go. Readers that resolved the
// untrimmed value keep it until they finish.
type Generation struct {
	// Gen is the generation number; 0 is the initial build with no churn
	// applied.
	Gen int
	// World is this generation's ground truth, carried while the
	// generation is live: the next build evolves it. A live-built
	// generation shares its parent's immutable structure (operators,
	// ASes, country profiles and their iteration orders) and owns its
	// ownership graph, a clone of the parent's evolved by one churn step.
	// Nil on a superseded ring slot, which audits through its control
	// table instead, and on a generation recovered from the archive.
	World *world.World
	// Result is the pipeline output built over World. The live
	// generation carries all of it, including the artifact memo the next
	// build reuses; a superseded or recovered generation carries only
	// Dataset, Health and Hijacks, with the index and the graph plane
	// adopted so Result.Index and Result.Graph still answer.
	Result *stateowned.Result
	// Index is the compiled serving index (Result.Index(), memoized).
	Index *serve.Index
	// Events are the churn events applied to the predecessor's world to
	// reach this one (empty for generation 0); TotalEvents is cumulative.
	Events      []churn.Event
	TotalEvents int
	// Stats reports what the build reused from its predecessor (nothing
	// when no predecessor memo was available).
	Stats BuildStats
	// Recovered marks a generation adopted from the durable archive at
	// startup rather than built by this process. A recovered generation
	// serves the record plane (/v1/*, /v1/hijacks, /v1/diff via
	// archived spans) byte-identically to its pre-crash self; its World
	// and Graph are nil — ground truth and the topology plane are
	// process memory, restored by the next live-built generation.
	Recovered bool

	// recSpans are the archived churn-audit spans a recovered
	// generation carries (nil for live-built generations).
	recSpans []durable.AuditSpan
	// controls is World's control table, what /v1/diff and the
	// archive's audit spans read of this generation's ground truth; it
	// outlives World in the ring. Nil for a recovered generation.
	controls *churn.ControlTable

	view serve.View
}

// superseded returns the copy of g that stays in the ring once a newer
// generation is live: everything serving, /v1/diff, the archive and
// pinned reads use — the control table in place of the world — and none
// of the build state (world, substrates, stage results, memo). g itself
// is left untouched for the readers still holding it.
func (g *Generation) superseded() *Generation {
	if g.Recovered {
		return g // restored from the archive: it carries no build state
	}
	res := &stateowned.Result{Dataset: g.Result.Dataset, Health: g.Result.Health, Hijacks: g.Result.Hijacks}
	res.AdoptIndex(g.Index)
	res.AdoptGraph(g.view.Graph)
	t := *g
	t.World = nil
	t.Result = res
	return &t
}

// View returns the generation as the serving layer sees it.
func (g *Generation) View() *serve.View { return &g.view }

// Store is the generational dataset store. One background builder
// advances generations (Advance/Reload); any number of request
// goroutines read the live generation through Current/Lookup. The
// publish path is a single atomic pointer store, so readers never block
// on a rebuild and never observe a partially built generation.
type Store struct {
	opts      Options
	val       Validation
	after     func(d time.Duration) <-chan time.Time
	churnBase *rng.Stream

	// current is the live generation, swapped atomically at publish.
	current atomic.Pointer[Generation]
	// reloading is true while a rebuild is in flight.
	reloading atomic.Bool
	// swaps counts published generations (cumulative, the first
	// included); ReloadStatus serves it.
	swaps atomic.Uint64
	// Cumulative rebuild counters: build-graph nodes executed vs
	// restored, and whole-structure index/graph adoptions.
	nodesBuilt  atomic.Uint64
	nodesReused atomic.Uint64
	indexReuses atomic.Uint64
	graphReuses atomic.Uint64
	// quarantines counts rebuilds the validation gate refused to
	// publish (cumulative, across recoveries); ReloadStatus serves it.
	quarantines atomic.Uint64
	// degraded, when non-nil, is the reload gate's failure state: the
	// store is serving last-known-good. Cleared by the next successful
	// swap.
	degraded atomic.Pointer[Degradation]

	// archive is the durable generation archive (nil = memory-only).
	// recoveredGen is the newest generation adopted from it at startup
	// (-1 = cold start); archiveErr is the most recent archive write
	// failure, for /readyz.
	archive      *durable.Archive
	recoveredGen atomic.Int64
	archiveErr   atomic.Pointer[string]
	// recSpans are the churn-audit spans archived with recovered
	// generations: (from, to) → audit. They answer /v1/diff for pairs
	// whose `to` generation has no control table to audit against.
	// Written once during New's adoption pass, read-only after.
	recSpans map[[2]int]*churn.Audit

	// buildMu serializes builders (Advance is safe to call concurrently,
	// advances just queue) and guards failures and writes to staged; mu
	// guards the retention ring.
	buildMu  sync.Mutex
	failures int // consecutive quarantined rebuilds
	// verdict is the gate's last rejection of a deterministic build,
	// answered again without rebuilding when the same (generation, live
	// parent) is retried. Guarded by buildMu; cleared on commit.
	verdict *verdict
	// staged is a generation that passed the validation gate but has not
	// been published — the fleet's two-phase reload holds it here between
	// the stage ack and the commit order. Invisible to readers until
	// Commit publishes it. Written under buildMu, read lock-free, so a
	// status probe never waits out a build.
	staged atomic.Pointer[Generation]
	mu     sync.RWMutex
	ring   []*Generation

	onEvict func(gen int)

	// buildHook, when non-nil, runs at the start of every generation
	// build — a test seam for injecting failing or panicking rebuilds
	// into the gate (mirrors the pipeline's node-level hook).
	buildHook func(gen int)
}

// verdict is a remembered gate rejection: generation gen built over
// live generation parent failed validation with err.
type verdict struct {
	gen, parent int
	err         error
}

// Degradation is the reload gate's published failure state: why the
// newest rebuild(s) were quarantined and how long this has been going
// on. The store keeps serving its last validated generation the whole
// time.
type Degradation struct {
	// Reason is the validation (or panic) error of the latest
	// quarantined rebuild.
	Reason string
	// FailedGen is the generation number that refused to build.
	FailedGen int
	// Failures counts consecutive quarantined rebuilds.
	Failures int
	// GaveUp reports that Reload exhausted Validation.MaxFailures and
	// stopped retrying.
	GaveUp bool
}

// New creates a Store and synchronously builds generation 0 (the
// pristine pipeline run — bit-identical to stateowned.Run(Base)).
func New(opts Options) *Store {
	if opts.Base.World != nil {
		panic("snapshot.New: Base.World must be nil; the store owns world construction")
	}
	if opts.Base.Scale <= 0 {
		opts.Base.Scale = 1.0
	}
	if opts.Rates == (churn.Rates{}) {
		opts.Rates = churn.DefaultRates()
	}
	if opts.Retain <= 0 {
		opts.Retain = DefaultRetain
	}
	seed := opts.ChurnSeed
	if seed == 0 {
		seed = rng.New(opts.Base.Seed).Sub("churn-schedule").Uint64()
	}
	opts.ChurnSeed = seed
	val := DefaultValidation()
	if opts.Validation != nil {
		val = *opts.Validation
	}
	after := opts.After
	if after == nil {
		after = time.After
	}
	s := &Store{opts: opts, val: val.normalize(), after: after, churnBase: rng.New(seed),
		archive: opts.Archive}
	s.recoveredGen.Store(-1)
	// Warm start: adopt the newest verified archived generations and
	// resume from there — the reload cadence continues at recovered+1.
	// A cold start (no archive, empty archive, or nothing verifiable)
	// builds generation 0 as always.
	if !s.adoptRecovered() {
		s.publish(s.build(0, nil))
	}
	return s
}

// SetBuildHook installs a hook run at the start of every generation
// build (nil uninstalls) and returns the previous hook. Test seam: a
// hook that panics exercises the gate's quarantine path exactly as a
// crashing pipeline stage would. Install before handing the store to
// concurrent builders.
func (s *Store) SetBuildHook(fn func(gen int)) func(gen int) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	prev := s.buildHook
	s.buildHook = fn
	return prev
}

// churnSeed derives the seed for the Evolve step leading into
// generation g, stable across rebuilds and restarts.
func (s *Store) churnSeed(g int) uint64 {
	return s.churnBase.Sub(fmt.Sprintf("generation/%d", g)).Uint64()
}

// build constructs generation gen: its world, then the hardened
// pipeline over it.
//
// With a live-built parent (one that carries its world) the world is
// the parent's, evolved: successor shares the parent's immutable
// structure and clones its ownership graph, and the churn steps from
// parent.Gen to gen — one for the immediate successor — run on the
// clone, so the parent stays frozen for the readers pinned to it and an
// advance costs one step however long the chain. With no such parent
// (generation 0, a recovered parent, or the differential oracle's nil)
// the world is replayed from first principles: a fresh world from the
// base config and gen seeded churn steps. Both reach the same world;
// the world-level and chain differentials hold them to it.
//
// The pipeline reuses parent's artifact memo when parent is the
// immediate predecessor; any other parent (or nil) builds every node.
// Either way the bytes are the same — only the work differs.
func (s *Store) build(gen int, parent *Generation) *Generation {
	if s.buildHook != nil {
		s.buildHook(gen)
	}
	cfg := s.opts.Base
	var w *world.World
	from, total := 0, 0
	if parent != nil && parent.World != nil && parent.Gen < gen {
		w, from, total = successor(parent.World), parent.Gen, parent.TotalEvents
	} else {
		w = world.Generate(world.Config{Seed: cfg.Seed, Scale: cfg.Scale, Countries: cfg.Countries})
	}
	var events []churn.Event
	for i := from + 1; i <= gen; i++ {
		events = churn.Evolve(w, yearsPerGen, s.churnSeed(i), s.opts.Rates)
		total += len(events)
	}
	cfg.World = w

	if parent != nil && (parent.Gen != gen-1 || parent.Result == nil) {
		parent = nil
	}
	if parent != nil {
		cfg.Memo = parent.Result.Memo
	}
	res := stateowned.Run(cfg)

	st := BuildStats{NodesTotal: len(res.Health.Timings), NodesReused: len(res.Reused), ReusedNodes: res.Reused}
	if parent != nil {
		reused := make(map[string]bool, len(res.Reused))
		for _, n := range res.Reused {
			reused[n] = true
		}
		// The serving index compiles from the dataset alone, so a reused
		// stage3 artifact (the identical dataset object) makes the
		// previous index valid verbatim. The graph plane reads topology,
		// the monitor set (the cti artifact) and AS2Org; cti restores
		// only when the topology is unchanged, whether the topology node
		// restored or rebuilt to the same content.
		if reused["stage3"] && parent.Index != nil {
			res.AdoptIndex(parent.Index)
			st.IndexReused = true
		}
		if reused["cti"] && reused["as2org"] && parent.view.Graph != nil {
			res.AdoptGraph(parent.view.Graph)
			st.GraphReused = true
		}
	}
	s.nodesBuilt.Add(uint64(st.NodesTotal - st.NodesReused))
	s.nodesReused.Add(uint64(st.NodesReused))
	if st.IndexReused {
		s.indexReuses.Add(1)
	}
	if st.GraphReused {
		s.graphReuses.Add(1)
	}

	g := &Generation{
		Gen: gen, World: w, Result: res, Index: res.Index(),
		Events: events, TotalEvents: total, Stats: st,
		controls: churn.NewControlTable(w),
	}
	g.view = serve.View{
		Gen:    gen,
		Index:  g.Index,
		Health: res.Health,
		// The graph compiles eagerly with the generation: the cost lands
		// at build/stage time (off the request path), and hot reloads
		// swap index and graph together, atomically.
		Graph: res.Graph(),
		// The detection report is a pipeline artifact (the hijack node
		// memoizes it like any other), so reuse needs no adoption hook.
		Hijacks: res.Hijacks,
		Provenance: serve.Provenance{
			Origin:      "generational",
			Seed:        cfg.Seed,
			Scale:       cfg.Scale,
			ChurnSeed:   s.opts.ChurnSeed,
			YearsPerGen: yearsPerGen,
			Events:      len(events),
			TotalEvents: total,
		},
	}
	return g
}

// successor returns a world for the generation after w's that churn
// may evolve without touching w: the struct is copied, so the operator,
// AS and profile maps and the iteration-order slices — which churn
// never writes — are shared, and the ownership graph, which it does
// write, is cloned.
func successor(w *world.World) *world.World {
	next := *w
	next.Graph = w.Graph.Clone()
	return &next
}

// publish makes g the live generation and trims the retention ring,
// notifying the eviction hook (outside the lock) for each generation
// that fell off. The generation g supersedes keeps its ring slot as the
// trimmed copy superseded returns, so only the live generation holds a
// build's memo and substrates.
func (s *Store) publish(g *Generation) {
	var evicted []int
	s.mu.Lock()
	if n := len(s.ring); n > 0 {
		s.ring[n-1] = s.ring[n-1].superseded()
	}
	s.ring = append(s.ring, g)
	s.current.Store(g) // the swap: new requests see g from here on
	for len(s.ring) > s.opts.Retain {
		evicted = append(evicted, s.ring[0].Gen)
		s.ring[0] = nil
		s.ring = s.ring[1:]
	}
	retained := append([]*Generation(nil), s.ring...)
	hook := s.onEvict
	s.mu.Unlock()
	s.swaps.Add(1)
	// Persist the generation after the swap, outside the ring lock:
	// readers were never waiting on the disk, and a write failure
	// leaves the in-memory store fully serving (counted and surfaced,
	// not fatal). Recovered generations are already on disk.
	if s.archive != nil && !g.Recovered {
		s.archiveCommit(g, retained)
	}
	if hook != nil {
		for _, gen := range evicted {
			hook(gen)
		}
	}
}

// OnEvict registers a hook called (outside store locks) with each
// generation number that leaves the retention ring — the server wires
// its cache purge here. Register before the first Advance.
func (s *Store) OnEvict(fn func(gen int)) {
	s.mu.Lock()
	s.onEvict = fn
	s.mu.Unlock()
}

// TryAdvance builds the next generation, runs it through the
// validation gate, and publishes it only if the gate passes. On
// failure (validation rejection or a panicking build) the candidate is
// quarantined — never published, eligible for GC — the store keeps
// serving its last validated generation, and the degraded state is
// raised with the failure reason. Blocking until the swap or the
// quarantine decision; safe for concurrent callers (builds serialize).
//
// TryAdvance is exactly Stage of the next generation followed by an
// immediate Commit — the single-process reload, where nothing sits
// between validation and publish. The fleet's two-phase reload calls
// the halves separately.
func (s *Store) TryAdvance() (*Generation, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	gen := s.current.Load().Gen + 1
	if err := s.stageLocked(gen); err != nil {
		return nil, err
	}
	return s.commitLocked(gen)
}

// Stage builds generation gen and runs it through the validation gate,
// holding the result unpublished: readers keep seeing the live
// generation until Commit. Phase one of the fleet's two-phase reload —
// a shard that staged successfully has proven it can serve gen and
// merely awaits the coordinator's commit order.
//
// Stage is idempotent: staging a generation that is already live (or
// older), or already staged, acks immediately without rebuilding. A
// failing or panicking build is quarantined exactly as in TryAdvance
// (degraded state raised, failure counted) and the error returned.
// Staging a different generation than one currently held replaces it.
func (s *Store) Stage(gen int) error {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	return s.stageLocked(gen)
}

// stageLocked is Stage under buildMu.
func (s *Store) stageLocked(gen int) error {
	prev := s.current.Load()
	if gen <= prev.Gen {
		return nil // already published — nothing to stage
	}
	if st := s.staged.Load(); st != nil && st.Gen == gen {
		return nil // already staged — idempotent re-ack
	}
	s.staged.Store(nil) // a held different generation is replaced either way
	s.reloading.Store(true)
	defer s.reloading.Store(false)
	g, err := s.buildValidated(gen, prev)
	if err != nil {
		s.quarantines.Add(1)
		s.failures++
		s.degraded.Store(&Degradation{
			Reason:    err.Error(),
			FailedGen: gen,
			Failures:  s.failures,
		})
		return fmt.Errorf("generation %d quarantined: %w", gen, err)
	}
	s.staged.Store(g)
	return nil
}

// Commit publishes the staged generation gen — phase two of the
// two-phase reload, a single atomic pointer swap. Committing a
// generation that is already live (or older) is an idempotent no-op
// returning (nil, nil): a shard that crashed after commit and was
// re-sent the order must not fail. Committing a generation that was
// never staged is an error — the coordinator's contract is stage
// first, unanimously, then commit.
func (s *Store) Commit(gen int) (*Generation, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	return s.commitLocked(gen)
}

// commitLocked is Commit under buildMu.
func (s *Store) commitLocked(gen int) (*Generation, error) {
	if s.current.Load().Gen >= gen {
		return nil, nil // already live — idempotent re-ack
	}
	g := s.staged.Load()
	if g == nil || g.Gen != gen {
		return nil, fmt.Errorf("commit generation %d: not staged (staged: %d, live: %d)",
			gen, s.StagedGen(), s.current.Load().Gen)
	}
	s.staged.Store(nil)
	s.failures = 0
	s.verdict = nil
	s.degraded.Store(nil)
	s.publish(g)
	return g, nil
}

// AbortStage discards a held staged generation (any generation when
// gen < 0, exactly gen otherwise) and reports whether something was
// dropped. The coordinator aborts every shard's stage when any shard
// fails to stage: the fleet then keeps serving the previous generation
// everywhere, coherently.
func (s *Store) AbortStage(gen int) bool {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	if st := s.staged.Load(); st == nil || (gen >= 0 && st.Gen != gen) {
		return false
	}
	s.staged.Store(nil)
	return true
}

// StagedGen reports the generation currently staged-but-unpublished,
// or -1 when none is — including while a stage build is still running.
// It never waits on a build.
func (s *Store) StagedGen() int {
	if g := s.staged.Load(); g != nil {
		return g.Gen
	}
	return -1
}

// Advance builds and publishes the next generation, blocking until the
// swap. Requests keep being served from the old generation for the
// whole build; the cutover itself is one atomic store. A rebuild the
// validation gate quarantines returns nil — the store is then serving
// last-known-good and Degraded() says why.
func (s *Store) Advance() *Generation {
	g, _ := s.TryAdvance()
	return g
}

// buildValidated builds generation gen over the live generation prev
// and runs it through the validation gate. A rejected build is a pure
// function of (gen, prev), so its verdict is remembered with that pair
// and a retry of the pair — Reload's backoff step, the coordinator's
// re-stage — is answered from it without building again. A build that
// panicked, or whose pipeline contained a node panic (the node, and
// every node downstream of it, is then missing from the memo), is
// never remembered: a panic may heal.
func (s *Store) buildValidated(gen int, prev *Generation) (*Generation, error) {
	if v := s.verdict; v != nil && v.gen == gen && v.parent == prev.Gen {
		return nil, v.err
	}
	g, err := s.buildChecked(gen, prev)
	if err != nil {
		return nil, err
	}
	if err := s.validate(prev, g); err != nil {
		if len(g.Result.Memo.Nodes()) == g.Stats.NodesTotal {
			s.verdict = &verdict{gen: gen, parent: prev.Gen, err: err}
		}
		return nil, err
	}
	return g, nil
}

// buildChecked runs build with a panic barrier: a crashing rebuild
// (broken source, corrupt stage — injected in tests via the build
// hook) becomes a quarantinable error instead of taking down the
// serving process.
func (s *Store) buildChecked(gen int, parent *Generation) (g *Generation, err error) {
	defer func() {
		if p := recover(); p != nil {
			g, err = nil, fmt.Errorf("rebuild panicked: %v", p)
		}
	}()
	return s.build(gen, parent), nil
}

// validate is the reload gate: the invariants a candidate generation
// must satisfy before it may replace the live one. Ordered cheapest
// first; the first violation wins.
func (s *Store) validate(prev, g *Generation) error {
	if g.Index.NumOrgs() == 0 || g.Index.NumASNs() == 0 {
		return fmt.Errorf("empty dataset (%d orgs, %d ASNs)", g.Index.NumOrgs(), g.Index.NumASNs())
	}
	if g.Result.Health != nil && !g.Result.Health.Ready() {
		return fmt.Errorf("pipeline not ready: sources unavailable %v", g.Result.Health.UnavailableSources())
	}
	if frac := churnFraction(prev, g); frac > s.val.MaxChurnFraction {
		return fmt.Errorf("churn %.3f exceeds bound %.3f (suspect rebuild)", frac, s.val.MaxChurnFraction)
	}
	return nil
}

// churnFraction measures how much of the previous generation's
// state-owned ASN set the candidate replaced: |symmetric difference| /
// max(1, |previous set|).
func churnFraction(prev, g *Generation) float64 {
	old := map[world.ASN]struct{}{}
	for _, a := range prev.Result.Dataset.AllASNs() {
		old[a] = struct{}{}
	}
	diff := 0
	seen := map[world.ASN]struct{}{}
	for _, a := range g.Result.Dataset.AllASNs() {
		seen[a] = struct{}{}
		if _, ok := old[a]; !ok {
			diff++ // added
		}
	}
	for a := range old {
		if _, ok := seen[a]; !ok {
			diff++ // removed
		}
	}
	denom := len(old)
	if denom == 0 {
		denom = 1
	}
	return float64(diff) / float64(denom)
}

// Reload advances generations on a fixed cadence until ctx is
// canceled, containing rebuild failures: a quarantined generation is
// retried under capped exponential backoff (DefaultReloadBackoff) while
// the store keeps serving last-known-good — a retry of a deterministic
// rejection is answered from its remembered verdict, not rebuilt
// (buildValidated) — and after
// Validation.MaxFailures consecutive quarantines (0 = never) the loop
// parks — serving the last good generation forever with GaveUp raised
// — rather than burning CPU on a rebuild that will not heal. logf
// (nil = silent) receives one line per swap and per quarantine.
func (s *Store) Reload(ctx context.Context, every time.Duration, logf func(format string, args ...any)) {
	for {
		delay := every
		if d := s.Degraded(); d != nil {
			if s.val.MaxFailures > 0 && d.Failures >= s.val.MaxFailures {
				s.giveUp(d)
				if logf != nil {
					logf("snapshot: reload gave up after %d consecutive quarantines (%s); serving generation %d until restart",
						d.Failures, d.Reason, s.current.Load().Gen)
				}
				<-ctx.Done()
				return
			}
			delay = time.Duration(DefaultReloadBackoff().Delay(d.Failures)) * time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-s.after(delay):
		}
		g, err := s.TryAdvance()
		if err != nil {
			if logf != nil {
				logf("snapshot: %v (serving last-known-good generation %d)", err, s.current.Load().Gen)
			}
			continue
		}
		if logf != nil {
			logf("snapshot: generation %d live (%d churn events, %d orgs, %d ASNs)",
				g.Gen, len(g.Events), g.Index.NumOrgs(), g.Index.NumASNs())
		}
	}
}

// giveUp marks the degraded state terminal (idempotent).
func (s *Store) giveUp(d *Degradation) {
	if d.GaveUp {
		return
	}
	done := *d
	done.GaveUp = true
	s.degraded.Store(&done)
}

// Current returns the live generation.
func (s *Store) Current() *Generation { return s.current.Load() }

// Reloading reports whether a rebuild is in flight.
func (s *Store) Reloading() bool { return s.reloading.Load() }

// Degraded returns the reload gate's failure state, or nil when the
// newest rebuild was published normally. The returned value is a
// snapshot — safe to read without locks.
func (s *Store) Degraded() *Degradation { return s.degraded.Load() }

// IncrementalCounters reports the cumulative memoized-rebuild counters:
// build-graph nodes executed vs restored from a memo, and whole
// compiled index/graph adoptions.
func (s *Store) IncrementalCounters() (nodesBuilt, nodesReused, indexReuses, graphReuses uint64) {
	return s.nodesBuilt.Load(), s.nodesReused.Load(), s.indexReuses.Load(), s.graphReuses.Load()
}

// Retained lists the generation numbers currently in the ring, oldest
// first.
func (s *Store) Retained() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, len(s.ring))
	for i, g := range s.ring {
		out[i] = g.Gen
	}
	return out
}

// Lookup resolves a generation number against the retention ring.
func (s *Store) Lookup(n int) (*Generation, serve.GenStatus) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.ring) == 0 || n > s.ring[len(s.ring)-1].Gen {
		return nil, serve.GenUnknown
	}
	oldest := s.ring[0].Gen
	if n < oldest {
		return nil, serve.GenEvicted
	}
	return s.ring[n-oldest], serve.GenOK
}

// Source adapts the store to the serving layer's generational Source
// interface.
func (s *Store) Source() serve.Source { return storeSource{s} }

// storeSource is the serve.Source adapter; a separate type keeps the
// store's own method set free of the interface's view-level signatures.
type storeSource struct{ s *Store }

// Current returns the live generation's view.
func (ss storeSource) Current() *serve.View { return ss.s.Current().View() }

// Generation resolves a pinned generation number.
func (ss storeSource) Generation(n int) (*serve.View, serve.GenStatus) {
	g, st := ss.s.Lookup(n)
	if st != serve.GenOK {
		return nil, st
	}
	return g.View(), st
}

// Diff audits `from`'s published dataset against `to`'s ground truth
// through `to`'s control table — the audit churn.RunAuditFlagged runs
// over `to`'s world (each stale row joined against `to`'s hijack
// detection report), so the HTTP answer is byte-identical to the
// offline audit, superseded `to` included. A recovered generation
// carries no table; for those, Diff serves the audit span archived at
// `to`'s original commit, which is the same bytes the pre-crash store
// computed. Pairs that never coexisted pre-crash (from a post-recovery
// build to a recovered `to`) have no span and answer 404.
func (ss storeSource) Diff(from, to *serve.View) (*churn.Audit, bool) {
	gf, stf := ss.s.Lookup(from.Gen)
	gt, stt := ss.s.Lookup(to.Gen)
	if stf != serve.GenOK || stt != serve.GenOK {
		return nil, false
	}
	if gt.controls == nil {
		return ss.s.recoveredSpan(gf.Gen, gt.Gen)
	}
	a := gt.controls.Audit(gf.Result.Dataset, gt.view.Hijacks)
	return &a, true
}

// ReloadStatus reports the rebuild state, including whether the store
// is degraded to last-known-good behind the validation gate.
func (ss storeSource) ReloadStatus() serve.ReloadStatus {
	st := serve.ReloadStatus{Reloading: ss.s.Reloading()}
	if d := ss.s.Degraded(); d != nil {
		st.Degraded = true
		st.DegradedReason = d.Reason
		st.ConsecutiveFailures = d.Failures
		st.GaveUp = d.GaveUp
	}
	st.NodesRebuilt, st.NodesReused, st.IndexReuses, st.GraphReuses = ss.s.IncrementalCounters()
	st.Swaps, st.Quarantines = ss.s.swaps.Load(), ss.s.quarantines.Load()
	if a := ss.s.archive; a != nil {
		st.Archive = true
		if rg := ss.s.RecoveredGen(); rg >= 0 {
			st.Recovered = true
			st.RecoveredGen = &rg
		}
		c := a.Counters()
		st.SegmentsVerified = c.SegmentsVerified
		st.SegmentsQuarantined = c.SegmentsQuarantined
		st.ArchiveWrites = c.Writes
		st.ArchiveWriteFailures = c.WriteFailures
		if msg := ss.s.archiveErr.Load(); msg != nil {
			st.ArchiveLastError = *msg
		}
	}
	return st
}
