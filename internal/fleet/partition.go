// Package fleet is the replicated serving layer over the generational
// dataset: N replica servers each serve the whole generation, a thin
// router sends every /v1 read to exactly one of them, and a two-phase
// coordinator keeps every replica's generation coherent through hot
// reloads — all replicas stage generation g behind the snapshot
// validation gate, and the router flips only after unanimous stage-acks
// and commits.
//
// Robustness is the design center. The fleet never serves a
// mixed-generation answer: the router pins every leg to its own
// committed fleet generation, and legs answering from any other
// generation are discarded as incoherent. The fleet never turns a
// minority replica failure into a failed answer: per-replica circuit
// breakers, per-leg deadlines carved from the request budget, one
// hedged retry for slow legs, and a move to the next replica when a leg
// is lost keep reads complete while any replica can answer. And the
// fleet never tears a reload: a replica that fails to stage quarantines
// the whole flip while every replica keeps serving the previous
// generation — the snapshot store's last-known-good discipline, lifted
// to fleet scope.
package fleet

import (
	"fmt"
	"sort"

	"stateowned/internal/expand"
	"stateowned/internal/world"
)

// MaxShards bounds the fleet size.
const MaxShards = 64

// Partition is the fleet's /v1/asn affinity: replica i is asked first
// about the ASNs in its half-open range (see Bounds), so each replica's
// response cache warms on its own range. It carves nothing: every
// replica serves the whole generation. Every router and every
// replica holds the identical partition — it is computed
// deterministically from the generation-0 dataset (ComputePartition)
// and cross-checked at bootstrap (Equal).
type Partition struct {
	// Shards is the shard count (>= 1).
	Shards int `json:"shards"`
	// Bounds are the Shards-1 split points, ascending: an ASN a belongs
	// to the highest shard i with Bounds[i-1] <= a (shard 0 below
	// Bounds[0]).
	Bounds []world.ASN `json:"bounds"`
}

// ComputePartition derives the fleet's partition from a dataset: the
// dataset's state-owned ASNs, sorted, are split into n contiguous runs
// of near-equal count, and each run's first ASN becomes a split point.
// The function is a pure function of (dataset, n), so every shard and
// router that builds the same generation-0 dataset computes the same
// partition without any coordination.
func ComputePartition(ds *expand.Dataset, n int) (Partition, error) {
	if n < 1 || n > MaxShards {
		return Partition{}, fmt.Errorf("shard count %d out of range [1, %d]", n, MaxShards)
	}
	p := Partition{Shards: n}
	if n == 1 {
		return p, nil
	}
	asns := ds.AllASNs() // sorted, deduplicated
	if len(asns) < n {
		return Partition{}, fmt.Errorf("dataset has %d state-owned ASNs, too few for %d shards", len(asns), n)
	}
	for i := 1; i < n; i++ {
		p.Bounds = append(p.Bounds, asns[i*len(asns)/n])
	}
	return p, nil
}

// ShardOf maps an ASN to the replica its range belongs to: binary
// search over the split points. Total — every representable ASN maps to
// exactly one replica, so the router picks a /v1/asn read's first
// replica without consulting any index.
func (p Partition) ShardOf(a world.ASN) int {
	return sort.Search(len(p.Bounds), func(i int) bool { return a < p.Bounds[i] })
}

// Equal reports whether two partitions are identical — the bootstrap
// cross-check that every replica and the router agree on the affinity.
func (p Partition) Equal(q Partition) bool {
	if p.Shards != q.Shards || len(p.Bounds) != len(q.Bounds) {
		return false
	}
	for i := range p.Bounds {
		if p.Bounds[i] != q.Bounds[i] {
			return false
		}
	}
	return true
}
