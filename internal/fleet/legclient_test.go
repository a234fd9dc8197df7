package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stateowned/internal/serve"
)

// TestLegClientReusesConnections puts a router and one replica on
// loopback and counts the replica's new connections through
// http.Server.ConnState while N clients read through the router at
// once. The router's client, a LegClient because the ShardClient brings
// none, keeps enough idle connections for every read in flight and its
// hedge, so the replica sees at most N connections plus one per hedge.
// The replica holds its first N reads until all N have arrived, so the
// pool holds N connections before any comes back: without that, a leg
// that dialed while another connection came back idle leaves one
// connection more (a loaded run saw 31 for 16 clients). With Go's
// default transport, two idle connections per host, the same load
// dials most legs anew.
func TestLegClientReusesConnections(t *testing.T) {
	const clients, reads = 16, 100
	store := shardStore(fleetConfig{seed: 42, scale: 0.05, retain: 2})
	part, err := ComputePartition(store.Current().Result.Dataset, 1)
	if err != nil {
		t.Fatalf("computing partition: %v", err)
	}
	sh := NewShardServer(store, part, 0, serve.Options{})
	var arrived sync.WaitGroup
	arrived.Add(clients)
	var requests, dials atomic.Int64
	replica := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if requests.Add(1) <= clients {
				arrived.Done()
				arrived.Wait()
			}
			sh.ServeHTTP(w, r)
		}),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listening on loopback: %v", err)
	}
	go replica.Serve(ln)
	defer replica.Shutdown(context.Background())

	rt, err := NewRouter(RouterOptions{
		Partition: part,
		Shards:    []ShardClient{{Base: "http://" + ln.Addr().String()}},
		Admission: &serve.AdmissionConfig{MaxInFlight: clients},
		// Legs wait at the barrier: give them room on a loaded host
		// (leg deadline 15 s, hedges after 3.75 s).
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("building router: %v", err)
	}
	defer rt.shards[0].client.HTTP.CloseIdleConnections()
	asns := store.Current().Result.Dataset.AllASNs()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				rec := httptest.NewRecorder()
				path := fmt.Sprintf("/v1/asn/%d", asns[(c*reads+i)%len(asns)])
				rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d reads failed", n, clients*reads)
	}
	hedges := rt.Metrics().Snapshot().Hedges
	t.Logf("replica accepted %d connections for %d clients and %d hedges", dials.Load(), clients, hedges)
	if got, bound := dials.Load(), int64(clients)+int64(hedges); got > bound {
		t.Errorf("replica accepted %d connections for %d concurrent clients and %d hedges; want at most %d",
			got, clients, hedges, bound)
	}
}
