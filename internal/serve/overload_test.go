package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stateowned/internal/churn"
)

// gateSource wraps a Source and wedges the first `tickets` view
// resolutions on a gate channel, simulating stalled handlers: a
// wedged request parks on the gate — holding its admission slot and
// burning its deadline budget — until the test closes the gate.
// Resolutions beyond the ticket budget pass through untouched, so the
// operational endpoints (which also resolve Current for their
// generation stamp) keep answering once the intended victims are
// parked. Shed requests never reach the gate at all: the handler
// never runs.
type gateSource struct {
	inner   Source
	gate    chan struct{}
	tickets atomic.Int32
	// blocked counts goroutines currently parked on the gate.
	blocked atomic.Int32
}

func newGateSource(inner Source, tickets int32) *gateSource {
	g := &gateSource{inner: inner, gate: make(chan struct{})}
	g.tickets.Store(tickets)
	return g
}

func (g *gateSource) Current() *View {
	if g.tickets.Add(-1) >= 0 {
		g.blocked.Add(1)
		<-g.gate
		g.blocked.Add(-1)
	}
	return g.inner.Current()
}

func (g *gateSource) Generation(n int) (*View, GenStatus) { return g.inner.Generation(n) }

func (g *gateSource) Diff(from, to *View) (*churn.Audit, bool) { return g.inner.Diff(from, to) }

func (g *gateSource) ReloadStatus() ReloadStatus { return g.inner.ReloadStatus() }

// waitBlocked parks until exactly n requests are wedged on the gate.
func (g *gateSource) waitBlocked(t *testing.T, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.blocked.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests reached the gate, want %d", g.blocked.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineAnswers504 proves the per-request budget: a wedged
// handler's request is answered 504 as soon as the deadline timer
// fires, the late handler's eventual return is discarded without
// racing the written response, and its admission slot is freed only
// when the work truly ends.
func TestDeadlineAnswers504(t *testing.T) {
	src := newGateSource(&staticSource{view: View{Index: BuildIndex(fixtureDataset())}}, 1)
	s := NewDynamic(src, Options{
		Clock:          testClock(1),
		Admission:      &AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
		RequestTimeout: time.Second, // virtual: the injected timer decides
		After:          instantFire,
	})

	w := do(t, s, "/v1/asn/100")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("wedged request = %d, want 504", w.Code)
	}
	// The handler goroutine is still wedged: the 504 was written while
	// the work was abandoned, and the slot is still held.
	src.waitBlocked(t, 1)
	if st := s.AdmissionStats(); st.Admitted != 1 {
		t.Fatalf("admission stats = %+v", st)
	}
	close(src.gate)
	// Once the gate opens the abandoned handler finishes and releases
	// its slot; acquiring it again must eventually succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rel, v := s.limiter.Acquire(nil)
		if v == Admitted {
			rel()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never released after the abandoned handler finished")
		}
		time.Sleep(time.Millisecond)
	}
	snap := s.Metrics().Snapshot()
	if snap.DeadlineExceededTotal != 1 {
		t.Fatalf("deadline_exceeded_total = %d", snap.DeadlineExceededTotal)
	}
}

// TestExpensiveEndpointsGetHalfBudget checks the budget table: /v1/diff
// and /v1/search run at half the configured request timeout, the
// operational plane has no budget at all.
func TestExpensiveEndpointsGetHalfBudget(t *testing.T) {
	s := NewDynamic(&staticSource{view: View{Index: BuildIndex(fixtureDataset())}}, Options{
		Clock:          testClock(1),
		RequestTimeout: 2 * time.Second,
	})
	for _, e := range []string{"/v1/asn", "/v1/country", "/v1/org", "/v1/dataset", "other"} {
		if got := s.budgets[e]; got != 2*time.Second {
			t.Errorf("budget[%s] = %v, want 2s", e, got)
		}
	}
	for _, e := range []string{"/v1/search", "/v1/diff"} {
		if got := s.budgets[e]; got != time.Second {
			t.Errorf("budget[%s] = %v, want 1s (half)", e, got)
		}
	}
	for _, e := range []string{"/healthz", "/readyz", "/metrics"} {
		if got := s.budgets[e]; got != 0 {
			t.Errorf("budget[%s] = %v, want none (operational plane)", e, got)
		}
	}
}

// TestPanicIsolation serves a broken view (nil Index, dereferenced by
// every handler) and proves the spine converts the panic to a 500 with
// a panics_total tick while the process — and subsequent requests on
// the same server — keep working.
func TestPanicIsolation(t *testing.T) {
	good := &staticSource{view: View{Index: BuildIndex(fixtureDataset())}}
	bad := &flipSource{good: good}
	s := NewDynamic(bad, Options{Clock: testClock(1)})

	bad.broken.Store(true)
	if w := do(t, s, "/v1/asn/100"); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", w.Code)
	}
	bad.broken.Store(false)
	if w := do(t, s, "/v1/asn/100"); w.Code != http.StatusOK {
		t.Fatalf("request after contained panic = %d, want 200", w.Code)
	}
	snap := s.Metrics().Snapshot()
	if snap.PanicsTotal != 1 {
		t.Fatalf("panics_total = %d, want 1", snap.PanicsTotal)
	}
}

// flipSource serves a broken view (nil Index) while broken is set, the
// good view otherwise.
type flipSource struct {
	good   Source
	broken atomic.Bool
}

func (f *flipSource) Current() *View {
	if f.broken.Load() {
		return &View{}
	}
	return f.good.Current()
}

func (f *flipSource) Generation(n int) (*View, GenStatus) { return f.good.Generation(n) }

func (f *flipSource) Diff(from, to *View) (*churn.Audit, bool) { return f.good.Diff(from, to) }

func (f *flipSource) ReloadStatus() ReloadStatus { return f.good.ReloadStatus() }

// TestOverloadSoak is the shed-don't-collapse proof, in three
// deterministic phases on a capacity-2 server. Phase 1: stalled
// clients wedge both slots (their requests park on the gate). Phase 2:
// a 10×-capacity flood arrives while the server is fully stalled —
// every flood request must be refused 503 + Retry-After, none may hang
// or crash. Phase 3: the stall clears and goodput returns — admitted
// requests answer 200 while excess contention keeps being shed. Every
// wait in the run rides the injected instant timer, so the whole soak
// is sleep-free and -short friendly; run under -race it also proves
// the spine's accounting and cache are clean under flood concurrency.
func TestOverloadSoak(t *testing.T) {
	const (
		maxInFlight  = 2
		stalled      = 4 // stalled clients; maxInFlight of them wedge
		floodClients = 8
		floodReqs    = 20
	)
	src := newGateSource(&staticSource{view: View{Index: BuildIndex(fixtureDataset())}}, maxInFlight)
	s := NewDynamic(src, Options{
		Clock:     testClock(1),
		Admission: &AdmissionConfig{MaxInFlight: maxInFlight, MaxQueue: 2},
		After:     instantFire, // queue waits expire at once; no deadlines (RequestTimeout 0)
	})

	var (
		mu       sync.Mutex
		byStatus = map[int]uint64{}
		bad      []string
	)
	record := func(code int, hdr http.Header) {
		mu.Lock()
		defer mu.Unlock()
		byStatus[code]++
		switch code {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			if hdr.Get("Retry-After") == "" {
				bad = append(bad, "503 without Retry-After")
			}
		default:
			bad = append(bad, http.StatusText(code))
		}
	}

	// Phase 1: stalled clients. With no request deadline their requests
	// block until the gate opens; exactly maxInFlight of them are
	// admitted and wedge, the rest are shed 503 immediately.
	var slowWG sync.WaitGroup
	for c := 0; c < stalled; c++ {
		slowWG.Add(1)
		go func() {
			defer slowWG.Done()
			w := do(t, s, "/v1/asn/100")
			record(w.Code, w.Header())
		}()
	}
	src.waitBlocked(t, maxInFlight)

	// Phase 2: flood a fully stalled server. No slot can free up, the
	// queue wait expires instantly — every single flood request must be
	// shed with 503, and none may block.
	var floodWG sync.WaitGroup
	for c := 0; c < floodClients; c++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for i := 0; i < floodReqs; i++ {
				w := do(t, s, "/v1/asn/100")
				record(w.Code, w.Header())
			}
		}()
	}
	floodWG.Wait()
	mu.Lock()
	if got := byStatus[http.StatusServiceUnavailable]; got < floodClients*floodReqs {
		t.Fatalf("stalled-phase flood: %d shed, want >= %d", got, floodClients*floodReqs)
	}
	mu.Unlock()
	// The operational plane still answers while the data plane sheds.
	if w := do(t, s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz during full stall = %d", w.Code)
	}

	// Phase 3: the stall clears; the wedged requests complete and
	// goodput returns under the same limiter.
	close(src.gate)
	slowWG.Wait()
	var recoverWG sync.WaitGroup
	for c := 0; c < floodClients; c++ {
		recoverWG.Add(1)
		go func() {
			defer recoverWG.Done()
			for i := 0; i < floodReqs; i++ {
				w := do(t, s, "/v1/asn/100")
				record(w.Code, w.Header())
			}
		}()
	}
	recoverWG.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, b := range bad {
		t.Error(b)
	}
	total := uint64(0)
	for _, n := range byStatus {
		total += n
	}
	if want := uint64(stalled + 2*floodClients*floodReqs); total != want {
		t.Fatalf("recorded %d responses, want %d (no request may vanish)", total, want)
	}
	if byStatus[http.StatusOK] < uint64(maxInFlight) {
		t.Fatalf("goodput did not return after the stall: %d OKs", byStatus[http.StatusOK])
	}
	snap := s.Metrics().Snapshot()
	if snap.ShedTotal == 0 || snap.ShedFraction <= 0 {
		t.Fatalf("shed accounting: total %d fraction %v", snap.ShedTotal, snap.ShedFraction)
	}
	if snap.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d", snap.InFlight)
	}
	ast := s.AdmissionStats()
	verdicts := ast.Admitted + ast.ShedQueueFull + ast.ShedTimeout + ast.ShedCanceled
	if verdicts != total {
		t.Fatalf("admission verdicts %d != data-plane responses %d", verdicts, total)
	}
	// The shedding curve is visible on the wire: /metrics carries the
	// admission block and the headline shed fraction.
	w := do(t, s, "/metrics")
	wire := decode[Snapshot](t, w)
	if wire.Admission == nil || wire.Admission.Admitted != ast.Admitted {
		t.Fatalf("/metrics admission block = %+v, want admitted %d", wire.Admission, ast.Admitted)
	}
	if wire.ShedFraction <= 0 {
		t.Fatalf("/metrics shed_fraction = %v", wire.ShedFraction)
	}
}

// switchAfter is an After that a flag switches between never firing
// and having fired already.
type switchAfter struct{ fire atomic.Bool }

func (a *switchAfter) after(d time.Duration) (<-chan time.Time, func() bool) {
	if a.fire.Load() {
		return instantFire(d)
	}
	return neverFire(d)
}

// newReplayServer is a cached server with one admission slot, no
// queue and a budget whose timer a decides.
func newReplayServer(src Source, a *switchAfter) *Server {
	return NewDynamic(src, Options{
		Clock:          testClock(1),
		CacheSize:      8,
		Admission:      &AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
		RequestTimeout: time.Second, // virtual: the switch decides
		After:          a.after,
	})
}

// TestReplayHitsRunOutsideTheBudget proves that a cache hit is answered
// before any budget starts: with a timer that has already fired, every
// hit still answers 200 with the bytes the miss filled, no deadline is
// counted, and each hit gives its admission slot back.
func TestReplayHitsRunOutsideTheBudget(t *testing.T) {
	a := &switchAfter{}
	s := newReplayServer(&staticSource{view: View{Index: BuildIndex(fixtureDataset())}}, a)
	fill := do(t, s, "/v1/asn/100")
	if fill.Code != http.StatusOK {
		t.Fatalf("filling miss = %d, want 200", fill.Code)
	}
	// The miss's worker frees its slot just after handing its answer
	// back; wait for that, so each hit below finds the one slot free
	// only if the hit before it gave the slot back.
	waitSlotFree(t, s)
	before := s.AdmissionStats()
	a.fire.Store(true)
	for i := 0; i < 100; i++ {
		w := do(t, s, "/v1/asn/100")
		if w.Code != http.StatusOK || w.Body.String() != fill.Body.String() {
			t.Fatalf("hit %d = %d %s, want the filled 200", i, w.Code, w.Body.String())
		}
		if g := w.Header().Get(GenerationHeader); g != "0" {
			t.Fatalf("hit %d: %s = %q, want 0", i, GenerationHeader, g)
		}
	}
	if n := s.Metrics().Snapshot().DeadlineExceededTotal; n != 0 {
		t.Fatalf("deadline_exceeded_total = %d after hits, want 0", n)
	}
	if st := s.CacheStats(); st.Hits != 100 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 100 hits and 1 miss", st)
	}
	if st := s.AdmissionStats(); st.Admitted-before.Admitted != 100 || st.ShedQueueFull != before.ShedQueueFull {
		t.Fatalf("admission stats = %+v after %+v, want 100 more admitted and none shed", st, before)
	}
}

// waitSlotFree waits until s's admission slot is free, taking it and
// giving it back.
func waitSlotFree(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rel, v := s.limiter.Acquire(nil)
		if v == Admitted {
			rel()
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after the miss's worker finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayMissKeepsTheBudget proves that a miss still runs in the
// worker under its budget: with a timer that has already fired when
// the spine starts waiting, misses answer 504 and count the deadline.
// The worker has only just started when the spine waits, so the fired
// timer is nearly always the one ready case; if the scheduler runs the
// worker to its end first, the spine may pick either answer. So each of
// several missing keys must answer 504 or its handler's answer, at
// least one must answer 504, and the count must match the 504s.
func TestReplayMissKeepsTheBudget(t *testing.T) {
	a := &switchAfter{}
	a.fire.Store(true)
	s := newReplayServer(&staticSource{view: View{Index: BuildIndex(fixtureDataset())}}, a)
	var timeouts uint64
	for _, asn := range []string{"100", "101", "200", "300", "301", "400", "500", "999"} {
		waitSlotFree(t, s) // an abandoned worker holds the one slot until it ends
		switch w := do(t, s, "/v1/asn/"+asn); w.Code {
		case http.StatusGatewayTimeout:
			timeouts++
		case http.StatusOK, http.StatusNotFound:
		default:
			t.Fatalf("miss for AS%s under a fired budget = %d, want 504", asn, w.Code)
		}
	}
	if timeouts == 0 {
		t.Fatal("no miss under a fired budget answered 504: misses ran outside the budget")
	}
	if n := s.Metrics().Snapshot().DeadlineExceededTotal; n != timeouts {
		t.Fatalf("deadline_exceeded_total = %d, want %d (one per 504)", n, timeouts)
	}
}

// panicSource is a Source whose Current panics while broken is set.
type panicSource struct {
	Source
	broken atomic.Bool
}

func (p *panicSource) Current() *View {
	if p.broken.Load() {
		panic("view resolution failed")
	}
	return p.Source.Current()
}

// TestReplayPanicIsContained proves that the replay stage runs behind
// the panic barrier: view resolution panicking on a cached server
// answers 500 and counts the panic, the admission slot comes back, and
// the next request is served.
func TestReplayPanicIsContained(t *testing.T) {
	src := &panicSource{Source: &staticSource{view: View{Index: BuildIndex(fixtureDataset())}}}
	s := newReplayServer(src, &switchAfter{})
	src.broken.Store(true)
	if w := do(t, s, "/v1/asn/100"); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking view resolution = %d, want 500", w.Code)
	}
	if n := s.Metrics().Snapshot().PanicsTotal; n != 1 {
		t.Fatalf("panics_total = %d, want 1", n)
	}
	src.broken.Store(false)
	if w := do(t, s, "/v1/asn/100"); w.Code != http.StatusOK {
		t.Fatalf("request after the contained panic = %d, want 200", w.Code)
	}
}
