package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"stateowned/internal/churn"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
)

// Control-plane paths a shard mounts next to its data plane. The
// control plane is never admission-limited: the coordinator must be
// able to stage, commit and abort precisely when the data plane is
// shedding.
const (
	StagePath  = "/fleet/stage"
	CommitPath = "/fleet/commit"
	AbortPath  = "/fleet/abort"
	StatusPath = "/fleet/status"
	// FullPrefix mounts a second, un-carved data plane: /full/v1/*
	// answers from the shard's complete generation exactly as a
	// single-process server would. The router sends /v1/dataset and
	// /v1/diff here (any one shard holds the whole deterministic build),
	// keeping those answers byte-identical to single-process without a
	// dataset-merge.
	FullPrefix = "/full"
)

// ShardStatus is a shard's control-plane self-description: who it is,
// what partition it carved, and where its generations stand. The router
// bootstraps from these (cross-checking that every shard agrees on the
// partition) and the coordinator reads LiveGen/StagedGen to converge a
// fleet whose shards diverged across a failed flip.
type ShardStatus struct {
	Shard     int                `json:"shard"`
	Shards    int                `json:"shards"`
	Partition Partition          `json:"partition"`
	LiveGen   int                `json:"live_gen"`
	StagedGen int                `json:"staged_gen"` // -1 when nothing is staged
	Retained  []int              `json:"retained"`
	Reload    serve.ReloadStatus `json:"reload"`
	// DatasetSums maps archived generation → dataset fingerprint when
	// the shard persists to a durable archive (absent otherwise).
	// Shards recover from their archives independently; Bootstrap
	// compares these fingerprints so two shards claiming the same
	// generation number are proven to hold the same dataset bytes
	// before the router pins to it.
	DatasetSums map[int]string `json:"dataset_sums,omitempty"`
}

// StageAck is the control-plane body for stage/commit/abort responses.
type StageAck struct {
	Shard int  `json:"shard"`
	Gen   int  `json:"gen"`
	Live  int  `json:"live_gen"`
	Done  bool `json:"done"`
}

// ShardServer is one fleet shard: a snapshot store that rebuilds every
// generation deterministically from (seed, churn seed, generation) — so
// shards need no state transfer, only agreement on the generation
// number — a carved data plane serving the shard's ASN-range partition,
// a full data plane under /full/ for fleet-wide answers, and the
// two-phase control plane the coordinator drives.
type ShardServer struct {
	store *snapshot.Store
	src   *shardSource
	data  *serve.Server // carved partition plane (/v1/*)
	full  *serve.Server // complete-generation plane (/full/v1/*)
	mux   *http.ServeMux
	life  serve.LifecycleOptions
}

// NewShardServer assembles shard `index` of the partition over a built
// snapshot store. The serve options apply to the carved data plane
// (admission, deadlines, cache); the full plane runs uncached and
// unlimited — it answers rare fleet-internal queries, not user traffic.
func NewShardServer(store *snapshot.Store, part Partition, index int, opts serve.Options) *ShardServer {
	if index < 0 || index >= part.Shards {
		panic(fmt.Sprintf("fleet: shard index %d out of range [0, %d)", index, part.Shards))
	}
	src := &shardSource{store: store, part: part, shard: index, carved: map[int]*serve.View{}}
	sh := &ShardServer{
		store: store,
		src:   src,
		data:  serve.NewDynamic(src, opts),
		full: serve.NewDynamic(store.Source(), serve.Options{
			Clock: opts.Clock, SearchLimit: opts.SearchLimit,
		}),
		mux: http.NewServeMux(),
		life: serve.LifecycleOptions{
			DrainTimeout:      opts.DrainTimeout,
			ReadHeaderTimeout: opts.ReadHeaderTimeout,
			WriteTimeout:      opts.WriteTimeout,
			IdleTimeout:       opts.IdleTimeout,
		},
	}
	// A generation leaving the retention ring takes its carved view and
	// its cached responses with it.
	store.OnEvict(func(gen int) {
		src.evict(gen)
		sh.data.InvalidateGeneration(gen)
		sh.full.InvalidateGeneration(gen)
	})
	sh.mux.HandleFunc("POST "+StagePath, sh.handleStage)
	sh.mux.HandleFunc("POST "+CommitPath, sh.handleCommit)
	sh.mux.HandleFunc("POST "+AbortPath, sh.handleAbort)
	sh.mux.HandleFunc("GET "+StatusPath, sh.handleStatus)
	sh.mux.Handle(FullPrefix+"/", http.StripPrefix(FullPrefix, sh.full))
	sh.mux.Handle("/", sh.data)
	return sh
}

// ServeHTTP dispatches between the control plane, the full plane and
// the carved data plane.
func (sh *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { sh.mux.ServeHTTP(w, r) }

// Serve runs the shard on ln with the hardened server lifecycle until
// ctx is canceled.
func (sh *ShardServer) Serve(ctx context.Context, ln net.Listener) error {
	return serve.ServeHandler(ctx, ln, sh, sh.life)
}

// Store exposes the shard's snapshot store (tests inject build hooks
// through it).
func (sh *ShardServer) Store() *snapshot.Store { return sh.store }

// Status snapshots the shard's control-plane self-description.
func (sh *ShardServer) Status() ShardStatus {
	return ShardStatus{
		Shard:       sh.src.shard,
		Shards:      sh.src.part.Shards,
		Partition:   sh.src.part,
		LiveGen:     sh.store.Current().Gen,
		StagedGen:   sh.store.StagedGen(),
		Retained:    sh.store.Retained(),
		Reload:      sh.store.Source().ReloadStatus(),
		DatasetSums: sh.store.DatasetSums(),
	}
}

// genParam parses the ?gen= control parameter.
func genParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("gen")
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid ?gen=%q: want a non-negative generation number", raw)
	}
	return n, nil
}

// handleStage is phase one: build generation gen through the snapshot
// validation gate and hold it unpublished. A 200 ack means "this shard
// can serve gen and awaits commit"; a 409 means the gate quarantined
// the build (the body carries the reason) and the coordinator must
// abort the flip fleet-wide.
func (sh *ShardServer) handleStage(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := sh.store.Stage(gen); err != nil {
		serve.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	// Pre-carve the staged generation so the first post-commit request
	// doesn't pay the sub-index build.
	if g := sh.store.Staged(); g != nil && g.Gen == gen {
		sh.src.carve(g)
	}
	serve.WriteJSON(w, http.StatusOK, StageAck{
		Shard: sh.src.shard, Gen: gen, Live: sh.store.Current().Gen, Done: true,
	})
}

// handleCommit is phase two: publish the staged generation with one
// atomic swap. Idempotent — re-committing an already-live generation
// acks — so a coordinator retrying after a lost ack converges.
func (sh *ShardServer) handleCommit(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, err := sh.store.Commit(gen); err != nil {
		serve.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, StageAck{
		Shard: sh.src.shard, Gen: gen, Live: sh.store.Current().Gen, Done: true,
	})
}

// handleAbort discards a staged generation; the fleet keeps serving the
// live one. Always acks: aborting nothing is not an error.
func (sh *ShardServer) handleAbort(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	dropped := sh.store.AbortStage(gen)
	sh.src.drop(gen)
	serve.WriteJSON(w, http.StatusOK, StageAck{
		Shard: sh.src.shard, Gen: gen, Live: sh.store.Current().Gen, Done: dropped,
	})
}

func (sh *ShardServer) handleStatus(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, sh.Status())
}

// shardSource adapts the snapshot store to the serving layer, carving
// each generation down to the shard's partition. Carved views are
// memoized per generation (bounded by the retention ring via evict) and
// everything a view reaches is immutable once built, so the source is
// safe under arbitrary request concurrency.
type shardSource struct {
	store *snapshot.Store
	part  Partition
	shard int

	mu     sync.Mutex
	carved map[int]*serve.View
}

// carve returns the shard's sub-view of a generation, building and
// memoizing it on first use.
func (ss *shardSource) carve(g *snapshot.Generation) *serve.View {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if v, ok := ss.carved[g.Gen]; ok {
		return v
	}
	full := g.View()
	sub := ss.part.Carve(g.Result.Dataset, ss.shard)
	v := &serve.View{
		Gen:        g.Gen,
		Index:      serve.BuildIndex(sub),
		Health:     full.Health,
		Provenance: full.Provenance,
		// The graph is global (relationships cross partition boundaries)
		// and immutable, so the carved plane shares the generation's
		// compiled graph rather than carving it: a shard queried directly
		// answers graph queries exactly as the full plane does.
		Graph: full.Graph,
		// The detection report is likewise global and immutable: hijack
		// observations are collected fleet-wide, never range-carved.
		Hijacks: full.Hijacks,
	}
	ss.carved[g.Gen] = v
	return v
}

// evict drops a generation's carved view when it leaves the ring.
func (ss *shardSource) evict(gen int) {
	ss.mu.Lock()
	delete(ss.carved, gen)
	ss.mu.Unlock()
}

// drop removes a pre-carved view for an aborted stage (only if that
// generation never went live).
func (ss *shardSource) drop(gen int) {
	if ss.store.Current().Gen >= gen {
		return
	}
	ss.evict(gen)
}

// Current returns the live generation's carved view.
func (ss *shardSource) Current() *serve.View { return ss.carve(ss.store.Current()) }

// Generation resolves a pinned generation to its carved view.
func (ss *shardSource) Generation(n int) (*serve.View, serve.GenStatus) {
	g, st := ss.store.Lookup(n)
	if st != serve.GenOK {
		return nil, st
	}
	return ss.carve(g), st
}

// Diff delegates to the store's full source: the audit runs over the
// complete dataset and ground truth, not the carved partition, so a
// diff answered by any one shard equals the single-process answer.
func (ss *shardSource) Diff(from, to *serve.View) (*churn.Audit, bool) {
	return ss.store.Source().Diff(from, to)
}

// ReloadStatus reports the store's rebuild state.
func (ss *shardSource) ReloadStatus() serve.ReloadStatus { return ss.store.Source().ReloadStatus() }
