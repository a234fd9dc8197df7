package fleet

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"stateowned/internal/serve"
)

// Router-overhead benchmarks: the same requests against a 2-replica
// in-process fleet (router → handler transport → replica) and against a
// single-process server over the identical generation. The delta is
// the price of the front door — pinning, one leg, coherence check —
// with no real network underneath, so it isolates the router's own
// work.

func benchPaths(tb testing.TB, tf *testFleet) (asnPath0, countryPath, searchPath string) {
	tb.Helper()
	a := tf.asnOnShard(tb, 0)
	cc := tf.shards[0].Store().Current().World.Countries[0]
	return asnPath(a), "/v1/country/" + cc, "/v1/search?name=telecom"
}

func benchFleet(b *testing.B) *testFleet {
	return buildFleet(b, fleetConfig{shards: 2})
}

func benchRequest(b *testing.B, h http.Handler, path string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
	}
}

func BenchmarkRouterASN(b *testing.B) {
	tf := benchFleet(b)
	path, _, _ := benchPaths(b, tf)
	benchRequest(b, tf.router, path)
}

func BenchmarkSingleASN(b *testing.B) {
	tf := benchFleet(b)
	path, _, _ := benchPaths(b, tf)
	single := serve.NewDynamic(shardStore(fleetConfig{seed: 42, scale: 0.05, retain: 8}).Source(), serve.Options{})
	benchRequest(b, single, path)
}

func BenchmarkRouterCountry(b *testing.B) {
	tf := benchFleet(b)
	_, path, _ := benchPaths(b, tf)
	benchRequest(b, tf.router, path)
}

func BenchmarkSingleCountry(b *testing.B) {
	tf := benchFleet(b)
	_, path, _ := benchPaths(b, tf)
	single := serve.NewDynamic(shardStore(fleetConfig{seed: 42, scale: 0.05, retain: 8}).Source(), serve.Options{})
	benchRequest(b, single, path)
}

func BenchmarkRouterSearch(b *testing.B) {
	tf := benchFleet(b)
	_, _, path := benchPaths(b, tf)
	benchRequest(b, tf.router, path)
}

func BenchmarkSingleSearch(b *testing.B) {
	tf := benchFleet(b)
	_, _, path := benchPaths(b, tf)
	single := serve.NewDynamic(shardStore(fleetConfig{seed: 42, scale: 0.05, retain: 8}).Source(), serve.Options{})
	benchRequest(b, single, path)
}
