package fleet

import (
	"testing"

	"stateowned"
	"stateowned/internal/world"
)

// TestPartitionContract proves the partition function's load-bearing
// properties on real datasets across seeds: totality (every ASN maps to
// exactly one in-range shard), determinism (same dataset, same
// partition) and rough balance, so /v1/asn reads spread across the
// replicas' caches.
func TestPartitionContract(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		res := stateowned.Run(stateowned.Config{Seed: seed, Scale: 0.05})
		ds := res.Dataset
		for _, n := range []int{1, 2, 4, 7} {
			p, err := ComputePartition(ds, n)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, n, err)
			}
			p2, _ := ComputePartition(ds, n)
			if !p.Equal(p2) {
				t.Fatalf("seed %d shards %d: partition not deterministic", seed, n)
			}

			// Totality and balance over the dataset's own ASNs.
			counts := make([]int, n)
			for _, a := range ds.AllASNs() {
				s := p.ShardOf(a)
				if s < 0 || s >= n {
					t.Fatalf("ShardOf(%d) = %d out of range", a, s)
				}
				counts[s]++
			}
			total := 0
			for s, c := range counts {
				if c == 0 {
					t.Fatalf("seed %d shards %d: shard %d owns no ASNs (counts %v)", seed, n, s, counts)
				}
				total += c
			}
			if total != len(ds.AllASNs()) {
				t.Fatalf("counts %v sum %d != %d ASNs", counts, total, len(ds.AllASNs()))
			}
			// Count-balanced split points: no shard more than 2x the ideal.
			ideal := total / n
			for s, c := range counts {
				if ideal > 0 && c > 2*ideal+1 {
					t.Errorf("seed %d shards %d: shard %d owns %d ASNs, ideal %d — unbalanced",
						seed, n, s, c, ideal)
				}
			}

			// Extremes always map in range.
			for _, a := range []world.ASN{0, 1, 1 << 30} {
				if s := p.ShardOf(a); s < 0 || s >= n {
					t.Fatalf("ShardOf(%d) = %d out of range", a, s)
				}
			}
		}
	}
}

// TestComputePartitionRejects proves the error paths: out-of-range
// shard counts and datasets too small to split.
func TestComputePartitionRejects(t *testing.T) {
	res := stateowned.Run(stateowned.Config{Seed: 7, Scale: 0.05})
	for _, n := range []int{0, -1, MaxShards + 1} {
		if _, err := ComputePartition(res.Dataset, n); err == nil {
			t.Errorf("ComputePartition(n=%d) accepted", n)
		}
	}
	if _, err := ComputePartition(res.Dataset, MaxShards); err != nil {
		// A 0.05-scale dataset has well over 64 ASNs; MaxShards must work.
		t.Errorf("ComputePartition(n=%d): %v", MaxShards, err)
	}
}
