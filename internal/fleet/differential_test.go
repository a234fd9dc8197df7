package fleet

// Differential proofs: a fleet answers every /v1 query byte-identically
// to a single-process server over the same generation.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"stateowned/internal/serve"
)

// TestFleetMatchesSingleProcess is the end-to-end differential proof:
// for seeds {7, 21, 42}, a 2-shard and a 4-shard fleet answer every
// /v1 query byte-identically (status, body and X-Generation) to a
// single-process server over the same generation — router, affinity
// and pinning all cancel out exactly.
func TestFleetMatchesSingleProcess(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[2:]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := fleetConfig{seed: seed, scale: 0.05}
			single := serve.NewDynamic(shardStore(cfg).Source(), serve.Options{})
			for _, shards := range []int{2, 4} {
				cfg := cfg
				cfg.shards = shards
				tf := buildFleet(t, cfg)
				ds := tf.shards[0].Store().Current().Result.Dataset

				var paths []string
				ccs := append([]string(nil), tf.shards[0].Store().Current().World.Countries...)
				ccs = append(ccs, "ZZ")
				for _, cc := range ccs {
					paths = append(paths, "/v1/country/"+cc)
				}
				for _, a := range ds.AllASNs() {
					paths = append(paths, fmt.Sprintf("/v1/asn/%d", a))
				}
				paths = append(paths, "/v1/asn/49999") // never state-owned
				for i := range ds.Organizations {
					paths = append(paths, "/v1/org/"+ds.Organizations[i].OrgID)
				}
				paths = append(paths, "/v1/org/ORG-NOPE")
				for i := 0; i < len(ds.Organizations) && i < 5; i++ {
					paths = append(paths, "/v1/search?name="+urlQueryEscape(ds.Organizations[i].OrgName))
				}
				paths = append(paths,
					"/v1/search?name=telecom",
					"/v1/search?name=zzzzqqqq", // no shared token anywhere: full-scan fallback
					"/v1/search?name=telecom&limit=3",
					"/v1/dataset",
				)

				for _, path := range paths {
					want := httptest.NewRecorder()
					single.ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
					got := tf.get(path)
					if got.Code != want.Code {
						t.Fatalf("%d shards %s: fleet %d, single %d\nfleet: %s\nsingle: %s",
							shards, path, got.Code, want.Code, got.Body, want.Body)
					}
					if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%d shards %s: bodies differ\nfleet:  %s\nsingle: %s",
							shards, path, got.Body, want.Body)
					}
					if g, w := got.Header().Get(serve.GenerationHeader), want.Header().Get(serve.GenerationHeader); g != w {
						t.Fatalf("%d shards %s: X-Generation %q vs %q", shards, path, g, w)
					}
				}
			}
		})
	}
}

// TestFleetMatchesSingleAfterReload re-proves the differential after a
// two-phase flip: fleet generation 1 must equal single-process
// generation 1, including ?gen=0 time travel.
func TestFleetMatchesSingleAfterReload(t *testing.T) {
	cfg := fleetConfig{seed: 42, scale: 0.05, shards: 2}
	singleStore := shardStore(cfg)
	singleStore.Advance()
	single := serve.NewDynamic(singleStore.Source(), serve.Options{})

	tf := buildFleet(t, cfg)
	if gen, err := tf.coord.FlipOnce(context.Background()); err != nil || gen != 1 {
		t.Fatalf("FlipOnce = %d, %v", gen, err)
	}

	ds := singleStore.Current().Result.Dataset
	var paths []string
	for _, cc := range singleStore.Current().World.Countries {
		paths = append(paths, "/v1/country/"+cc, "/v1/country/"+cc+"?gen=0")
	}
	for _, a := range ds.AllASNs()[:10] {
		paths = append(paths, fmt.Sprintf("/v1/asn/%d", a))
	}
	for _, path := range paths {
		want := httptest.NewRecorder()
		single.ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
		got := tf.get(path)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: fleet (%d) %s\nvs single (%d) %s", path, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

func urlQueryEscape(s string) string { return url.QueryEscape(s) }
