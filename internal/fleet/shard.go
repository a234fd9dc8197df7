package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"

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
	// FullPrefix is an alias of the data plane: /full/v1/* answers
	// exactly as /v1/* does. No code in this module routes through it;
	// it is kept only for the perfbench harness, whose shard probes
	// still address it.
	FullPrefix = "/full"
)

// ShardStatus is a replica's control-plane self-description: who it
// is, which partition it holds its /v1/asn affinity under, and where
// its generations stand. The router bootstraps from these
// (cross-checking that every replica agrees on the partition) and the
// coordinator reads LiveGen/StagedGen to converge a fleet whose
// replicas diverged across a failed flip.
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

// ShardServer is one fleet replica: a snapshot store that rebuilds
// every generation deterministically from (seed, churn seed,
// generation) — so replicas need no state transfer, only agreement on
// the generation number — one data plane serving the whole generation
// exactly as a single-process server does, and the two-phase control
// plane the coordinator drives.
type ShardServer struct {
	store *snapshot.Store
	part  Partition
	index int
	data  *serve.Server
	mux   *http.ServeMux
	life  serve.LifecycleOptions
}

// NewShardServer assembles replica `index` of the fleet over a built
// snapshot store. The partition carves nothing; the replica reports it
// on /fleet/status for Bootstrap's cross-check. The serve options
// configure the data plane (admission, deadlines, cache).
func NewShardServer(store *snapshot.Store, part Partition, index int, opts serve.Options) *ShardServer {
	if index < 0 || index >= part.Shards {
		panic(fmt.Sprintf("fleet: shard index %d out of range [0, %d)", index, part.Shards))
	}
	sh := &ShardServer{
		store: store,
		part:  part,
		index: index,
		data:  serve.NewDynamic(store.Source(), opts),
		mux:   http.NewServeMux(),
		life:  serve.LifecycleOptions{DrainTimeout: opts.DrainTimeout},
	}
	// A generation leaving the retention ring takes its cached responses
	// with it.
	store.OnEvict(sh.data.InvalidateGeneration)
	sh.mux.HandleFunc("POST "+StagePath, sh.handleStage)
	sh.mux.HandleFunc("POST "+CommitPath, sh.handleCommit)
	sh.mux.HandleFunc("POST "+AbortPath, sh.handleAbort)
	sh.mux.HandleFunc("GET "+StatusPath, sh.handleStatus)
	sh.mux.Handle(FullPrefix+"/", http.StripPrefix(FullPrefix, sh.data))
	sh.mux.Handle("/", sh.data)
	return sh
}

// ServeHTTP dispatches between the control plane and the data plane.
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
		Shard:       sh.index,
		Shards:      sh.part.Shards,
		Partition:   sh.part,
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
	serve.WriteJSON(w, http.StatusOK, StageAck{
		Shard: sh.index, Gen: gen, Live: sh.store.Current().Gen, Done: true,
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
		Shard: sh.index, Gen: gen, Live: sh.store.Current().Gen, Done: true,
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
	serve.WriteJSON(w, http.StatusOK, StageAck{
		Shard: sh.index, Gen: gen, Live: sh.store.Current().Gen, Done: dropped,
	})
}

func (sh *ShardServer) handleStatus(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, sh.Status())
}
