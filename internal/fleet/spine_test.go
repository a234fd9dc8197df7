package fleet

// Tests of the one containment spine the router and a replica's
// control plane answer through.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stateowned/internal/serve"
)

// v1Rows maps each /v1 registry row to its request count and status
// mix.
func v1Rows(rows []serve.EndpointSnapshot) map[string]serve.EndpointSnapshot {
	out := map[string]serve.EndpointSnapshot{}
	for _, e := range rows {
		if strings.HasPrefix(e.Endpoint, "/v1/") {
			out[e.Endpoint] = serve.EndpointSnapshot{Requests: e.Requests, ByStatus: e.ByStatus}
		}
	}
	return out
}

// TestRouterMetricsMatchSingle proves the router and a single-process
// server account the same traffic the same way: after the probe
// battery runs through a 2-replica router and through the server, the
// router's /metrics rows for every /v1 endpoint match the server's in
// request count and status mix.
func TestRouterMetricsMatchSingle(t *testing.T) {
	cfg := fleetConfig{seed: 42, scale: 0.05, retain: 8, shards: 2}
	single := serve.NewDynamic(shardStore(cfg).Source(), serve.Options{})
	tf := buildFleet(t, cfg)
	for _, path := range tf.probeBattery(t) {
		single.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		tf.get(path)
	}
	var got, want struct {
		Endpoints []serve.EndpointSnapshot `json:"endpoints"`
	}
	for _, m := range []struct {
		h   http.Handler
		out any
	}{{tf.router, &got}, {single, &want}} {
		rec := httptest.NewRecorder()
		m.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), m.out); err != nil {
			t.Fatalf("/metrics: %v (%s)", err, rec.Body)
		}
	}
	gotRows, wantRows := v1Rows(got.Endpoints), v1Rows(want.Endpoints)
	if len(wantRows) == 0 {
		t.Fatal("the single-process server recorded no /v1 rows")
	}
	for endpoint, w := range wantRows {
		g, ok := gotRows[endpoint]
		if !ok {
			t.Errorf("router /metrics has no %s row; server: %d requests %v", endpoint, w.Requests, w.ByStatus)
			continue
		}
		if g.Requests != w.Requests || len(g.ByStatus) != len(w.ByStatus) {
			t.Errorf("%s: router %d requests %v, server %d requests %v", endpoint, g.Requests, g.ByStatus, w.Requests, w.ByStatus)
			continue
		}
		for code, n := range w.ByStatus {
			if g.ByStatus[code] != n {
				t.Errorf("%s: router %v, server %v", endpoint, g.ByStatus, w.ByStatus)
				break
			}
		}
	}
	if len(gotRows) != len(wantRows) {
		t.Errorf("router has %d /v1 rows, server %d", len(gotRows), len(wantRows))
	}
}

// wedgedSource parks the first Current call after arm until release is
// closed, holding that request's admission slot.
type wedgedSource struct {
	serve.Source
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (w *wedgedSource) Current() *serve.View {
	if w.armed.CompareAndSwap(true, false) {
		close(w.parked)
		<-w.release
	}
	return w.Source.Current()
}

// TestControlPlaneAnswersWhileSaturated proves the control plane rides
// the replica's spine outside admission control: with the data plane's
// one slot held by a wedged read and no queue, a second read is shed,
// yet /fleet/status, /fleet/stage and /fleet/commit all answer, the
// admission accounting never sees them, and /metrics carries their
// rows.
func TestControlPlaneAnswersWhileSaturated(t *testing.T) {
	store := shardStore(fleetConfig{seed: 42, scale: 0.05, retain: 8})
	src := &wedgedSource{Source: store.Source(), parked: make(chan struct{}), release: make(chan struct{})}
	sh := newShardServer(store, src, Partition{Shards: 1}, 0, serve.Options{
		Admission: &serve.AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
	})
	call := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		sh.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	asn := asnPath(store.Current().Result.Dataset.AllASNs()[0])

	src.armed.Store(true)
	first := make(chan int, 1)
	go func() { first <- call(http.MethodGet, asn).Code }()
	<-src.parked // the one admission slot is held
	if code := call(http.MethodGet, asn).Code; code != http.StatusServiceUnavailable {
		t.Fatalf("read against the saturated data plane: %d, want shed 503", code)
	}
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, StatusPath},
		{http.MethodPost, StagePath + "?gen=1"},
		{http.MethodPost, CommitPath + "?gen=1"},
	} {
		if rec := call(c.method, c.path); rec.Code != http.StatusOK {
			t.Fatalf("%s %s while the data plane is saturated: %d %s", c.method, c.path, rec.Code, rec.Body)
		}
	}
	close(src.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("wedged read: %d", code)
	}

	var m serve.Snapshot
	if err := json.Unmarshal(call(http.MethodGet, "/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission == nil || m.Admission.Admitted != 1 || m.Admission.ShedQueueFull != 1 {
		t.Fatalf("admission %+v, want the wedged read admitted and the second shed", m.Admission)
	}
	rows := map[string]uint64{}
	for _, e := range m.Endpoints {
		rows[e.Endpoint] = e.ByStatus["200"]
	}
	for _, p := range []string{StatusPath, StagePath, CommitPath} {
		if rows[p] != 1 {
			t.Errorf("/metrics row %s: %d answers of 200, want 1", p, rows[p])
		}
	}
}

// TestStatusAnswersDuringStage proves /fleet/status never waits on a
// build: while a stage build is parked inside the pipeline, the status
// answers at once, still live on generation 0 with nothing staged and
// the rebuild in flight.
func TestStatusAnswersDuringStage(t *testing.T) {
	store := shardStore(fleetConfig{seed: 42, scale: 0.05, retain: 8})
	sh := NewShardServer(store, Partition{Shards: 1}, 0, serve.Options{})
	parked, release := make(chan struct{}), make(chan struct{})
	store.SetBuildHook(func(int) {
		close(parked)
		<-release
	})
	defer store.SetBuildHook(nil)
	staged := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		sh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, StagePath+"?gen=1", nil))
		staged <- rec.Code
	}()
	<-parked

	answered := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		sh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, StatusPath, nil))
		answered <- rec
	}()
	select {
	case rec := <-answered:
		var st ShardStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
			t.Errorf("/fleet/status during a stage: %d %s (err %v)", rec.Code, rec.Body, err)
		} else if st.LiveGen != 0 || st.StagedGen != -1 || !st.Reload.Reloading {
			t.Errorf("/fleet/status during a stage: live %d, staged %d, reloading %v; want 0, -1, true",
				st.LiveGen, st.StagedGen, st.Reload.Reloading)
		}
	case <-time.After(2 * time.Second):
		t.Error("/fleet/status did not answer within 2s of a parked stage build")
	}
	close(release)
	if code := <-staged; code != http.StatusOK {
		t.Fatalf("stage: %d", code)
	}
}
