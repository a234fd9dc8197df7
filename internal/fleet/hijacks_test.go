package fleet

import (
	"context"
	"fmt"
	"testing"

	"stateowned"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
)

// hijackProbePaths is the /v1/hijacks request battery the fleet
// byte-identity checks replay: the bare report, every filter, malformed
// parameters (error envelopes must match too), and generation pins.
func hijackProbePaths() []string {
	return []string{
		"/v1/hijacks",
		"/v1/hijacks?cross_border=true",
		"/v1/hijacks?cross_border=0",
		"/v1/hijacks?cc=CN",
		"/v1/hijacks?cc=cn&cross_border=TRUE",
		"/v1/hijacks?victim=4294967294",
		"/v1/hijacks?victim=0",
		"/v1/hijacks?victim=bogus",
		"/v1/hijacks?cc=notacountry",
		"/v1/hijacks?cross_border=maybe",
		"/v1/hijacks?gen=0",
		"/v1/hijacks?gen=99",
		"/v1/hijacks?gen=abc",
	}
}

// TestHijacksByteIdentityAcrossShardCounts extends the fleet acceptance
// check to the adversarial surface: with live campaigns, /v1/hijacks
// answers must be byte-identical between a single-process server and 1-, 2- and 4-shard
// fleets, at generation 0 and after a two-phase flip.
func TestHijacksByteIdentityAcrossShardCounts(t *testing.T) {
	const (
		seed   = 42
		scale  = 0.05
		hijack = 0.75
		rov    = 0.25
	)
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		shardCounts = []int{2}
	}
	refStore := snapshot.New(snapshot.Options{
		Base:   stateowned.Config{Seed: seed, Scale: scale, HijackSeverity: hijack, ROVFraction: rov},
		Retain: 8,
	})
	if len(refStore.Current().Result.Hijacks.Detections) == 0 {
		t.Fatal("reference run detected nothing; the adversarial battery is vacuous")
	}
	ref := serve.NewDynamic(refStore.Source(), serve.Options{})

	fleets := make([]*testFleet, len(shardCounts))
	for i, shards := range shardCounts {
		fleets[i] = buildFleet(t, fleetConfig{
			seed: seed, scale: scale, shards: shards, retain: 8, hijack: hijack, rov: rov,
		})
	}
	probes := hijackProbePaths()
	compare := func(stage string) {
		t.Helper()
		for i, tf := range fleets {
			for _, path := range probes {
				want := singleGet(ref, path)
				got := tf.get(path)
				if got.Code != want.Code || got.Body.String() != want.Body.String() {
					t.Fatalf("%d shards, %s: GET %s diverged:\n fleet (%d): %s\nsingle (%d): %s",
						shardCounts[i], stage, path, got.Code, got.Body, want.Code, want.Body)
				}
				if g, w := got.Header().Get(serve.GenerationHeader), want.Header().Get(serve.GenerationHeader); g != w {
					t.Fatalf("%d shards, %s: GET %s X-Generation %q, single-process %q",
						shardCounts[i], stage, path, g, w)
				}
			}
		}
	}
	compare("generation 0")

	if g := refStore.Advance(); g == nil {
		t.Fatal("reference store quarantined generation 1")
	}
	for i, tf := range fleets {
		gen, err := tf.coord.FlipOnce(context.Background())
		if err != nil {
			t.Fatalf("%d shards: flip: %v", shardCounts[i], err)
		}
		if gen != 1 {
			t.Fatalf("%d shards: flip landed on generation %d", shardCounts[i], gen)
		}
	}
	compare("after flip")
}

// TestHijacksFullROVFleetMatchesHonest is the acceptance criterion from
// the other side: a fully ROV-gated fleet must answer every probed
// endpoint byte-identically to an honest (adversary-free)
// single-process server — campaigns at rov=1.0 do not exist, anywhere
// on the surface.
func TestHijacksFullROVFleetMatchesHonest(t *testing.T) {
	const (
		seed  = 7
		scale = 0.05
	)
	shards := 2
	honestStore := snapshot.New(snapshot.Options{
		Base:   stateowned.Config{Seed: seed, Scale: scale},
		Retain: 8,
	})
	honest := serve.NewDynamic(honestStore.Source(), serve.Options{})
	tf := buildFleet(t, fleetConfig{
		seed: seed, scale: scale, shards: shards, retain: 8, hijack: 1.0, rov: 1.0,
	})

	topo := honestStore.Current().Result.Topology
	a := topo.ASNAt(0)
	probes := append(hijackProbePaths(),
		"/v1/dataset",
		fmt.Sprintf("/v1/asn/%d", a),
		fmt.Sprintf("/v1/graph/neighbors/%d", a),
		fmt.Sprintf("/v1/graph/cone/%d", a),
	)
	for _, path := range probes {
		want := singleGet(honest, path)
		got := tf.get(path)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("rov=1.0 fleet: GET %s diverged from the honest server:\n fleet (%d): %s\nhonest (%d): %s",
				path, got.Code, got.Body, want.Code, want.Body)
		}
	}
}
