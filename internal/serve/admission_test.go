package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// neverFire is an After that never fires: queue waits and deadlines
// block forever, making "the timer did not win" deterministic.
func neverFire(time.Duration) (<-chan time.Time, func() bool) { return nil, noStop }

// instantFire is an After that has already fired: the timer always
// wins any race it is allowed to win.
func instantFire(time.Duration) (<-chan time.Time, func() bool) {
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch, noStop
}

// noStop is the stop of a hand-fired After: there is no timer to stop.
func noStop() bool { return false }

func TestAdmissionConfigNormalize(t *testing.T) {
	cases := []struct {
		name string
		in   AdmissionConfig
		want AdmissionConfig
	}{
		{"zero value gets defaults", AdmissionConfig{}, AdmissionConfig{
			MaxInFlight: DefaultMaxInFlight, MaxQueue: DefaultMaxQueue,
			QueueWait: DefaultQueueWait, RetryAfter: DefaultRetryAfter,
		}},
		{"huge values clamp to the cap", AdmissionConfig{MaxInFlight: 1 << 30, MaxQueue: 1 << 30, QueueWait: time.Hour, RetryAfter: time.Hour}, AdmissionConfig{
			MaxInFlight: MaxInFlightCap, MaxQueue: MaxInFlightCap,
			QueueWait: time.Hour, RetryAfter: time.Hour,
		}},
		{"negative queue means no queue", AdmissionConfig{MaxInFlight: 4, MaxQueue: -1}, AdmissionConfig{
			MaxInFlight: 4, MaxQueue: 0, QueueWait: DefaultQueueWait, RetryAfter: DefaultRetryAfter,
		}},
		{"negative wait disables the queue", AdmissionConfig{MaxInFlight: 4, MaxQueue: 8, QueueWait: -time.Second}, AdmissionConfig{
			MaxInFlight: 4, MaxQueue: 0, QueueWait: 0, RetryAfter: DefaultRetryAfter,
		}},
		{"negative in-flight gets the default", AdmissionConfig{MaxInFlight: -3}, AdmissionConfig{
			MaxInFlight: DefaultMaxInFlight, MaxQueue: DefaultMaxQueue,
			QueueWait: DefaultQueueWait, RetryAfter: DefaultRetryAfter,
		}},
	}
	for _, tc := range cases {
		if got := tc.in.Normalize(); got != tc.want {
			t.Errorf("%s: Normalize(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestLimiterAdmitAndRelease(t *testing.T) {
	l := NewLimiter(AdmissionConfig{MaxInFlight: 2, MaxQueue: -1}, neverFire)
	rel1, v1 := l.Acquire(nil)
	rel2, v2 := l.Acquire(nil)
	if v1 != Admitted || v2 != Admitted {
		t.Fatalf("verdicts = %v, %v", v1, v2)
	}
	// Both slots held, no queue: the third is shed without waiting.
	if _, v := l.Acquire(nil); v != ShedQueueFull {
		t.Fatalf("third acquire = %v, want ShedQueueFull", v)
	}
	rel1()
	if rel, v := l.Acquire(nil); v != Admitted {
		t.Fatalf("post-release acquire = %v", v)
	} else {
		rel()
	}
	rel2()
	st := l.Stats()
	if st.Admitted != 3 || st.ShedQueueFull != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLimiterQueueTimeout(t *testing.T) {
	l := NewLimiter(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4}, instantFire)
	rel, v := l.Acquire(nil)
	if v != Admitted {
		t.Fatalf("first acquire = %v", v)
	}
	// The slot is held; the queued request's wait timer fires at once.
	if _, v := l.Acquire(nil); v != ShedTimeout {
		t.Fatalf("queued acquire = %v, want ShedTimeout", v)
	}
	rel()
	st := l.Stats()
	if st.ShedTimeout != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLimiterQueueCanceled(t *testing.T) {
	l := NewLimiter(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4}, neverFire)
	rel, _ := l.Acquire(nil)
	defer rel()
	canceled := make(chan struct{})
	close(canceled)
	if _, v := l.Acquire(canceled); v != ShedCanceled {
		t.Fatalf("canceled acquire = %v, want ShedCanceled", v)
	}
	if st := l.Stats(); st.ShedCanceled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLimiterQueueHandoff(t *testing.T) {
	// A queued waiter must get the slot when the holder releases it.
	l := NewLimiter(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4}, neverFire)
	rel, _ := l.Acquire(nil)
	got := make(chan Verdict, 1)
	go func() {
		rel2, v := l.Acquire(nil)
		if v == Admitted {
			rel2()
		}
		got <- v
	}()
	// Wait until the goroutine is queued, then release.
	for {
		if l.Stats().Queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rel()
	if v := <-got; v != Admitted {
		t.Fatalf("queued waiter verdict = %v, want Admitted", v)
	}
}

func TestLimiterNilAdmitsEverything(t *testing.T) {
	var l *Limiter
	rel, v := l.Acquire(nil)
	if v != Admitted || rel == nil {
		t.Fatalf("nil limiter: %v", v)
	}
	rel()
	if st := l.Stats(); st != (AdmissionStats{}) {
		t.Fatalf("nil limiter stats = %+v", st)
	}
	if l.RetryAfterSeconds() != 0 {
		t.Fatal("nil limiter advertised a Retry-After")
	}
}

func TestLimiterConcurrencyBound(t *testing.T) {
	// Hammer the limiter from many goroutines (with handoff enabled via
	// a real, very short queue wait) and prove admitted concurrency
	// never exceeds MaxInFlight.
	const maxInFlight = 4
	l := NewLimiter(AdmissionConfig{MaxInFlight: maxInFlight, MaxQueue: 64, QueueWait: 5 * time.Millisecond}, TimerAfter)
	var (
		mu      sync.Mutex
		cur     int
		highRes int
	)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, v := l.Acquire(nil)
			if v != Admitted {
				return
			}
			mu.Lock()
			cur++
			if cur > highRes {
				highRes = cur
			}
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			cur--
			mu.Unlock()
			rel()
		}()
	}
	wg.Wait()
	if highRes > maxInFlight {
		t.Fatalf("observed %d concurrent admissions, bound is %d", highRes, maxInFlight)
	}
	if st := l.Stats(); st.Admitted == 0 {
		t.Fatalf("nothing admitted: %+v", st)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	l := NewLimiter(AdmissionConfig{RetryAfter: 2500 * time.Millisecond}, neverFire)
	if got := l.RetryAfterSeconds(); got != 3 {
		t.Fatalf("RetryAfterSeconds = %d, want 3 (rounded up)", got)
	}
	l = NewLimiter(AdmissionConfig{RetryAfter: time.Millisecond}, neverFire)
	if got := l.RetryAfterSeconds(); got != 1 {
		t.Fatalf("RetryAfterSeconds = %d, want the 1s minimum", got)
	}
}

// TestServerShedsWith503 drives the shed path end to end through the
// HTTP spine: with one slot held by a blocked handler and no queue, the
// next /v1 request is refused with 503 + Retry-After, the operational
// endpoints still answer, and the blocked request completes normally
// once unblocked.
func TestServerShedsWith503(t *testing.T) {
	src := newGateSource(&staticSource{view: View{Index: BuildIndex(fixtureDataset())}}, 1)
	s := NewDynamic(src, Options{
		Clock:     testClock(1),
		Admission: &AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
		After:     neverFire,
	})

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- do(t, s, "/v1/asn/100") }()
	src.waitBlocked(t, 1) // the first request now holds the only slot

	if w := do(t, s, "/v1/asn/200"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request = %d, want 503", w.Code)
	} else if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	// The operational plane is never admission-controlled.
	if w := do(t, s, "/metrics"); w.Code != http.StatusOK {
		t.Fatalf("metrics under saturation = %d", w.Code)
	}

	close(src.gate)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("blocked request finished with %d", w.Code)
	}
	snap := s.Metrics().Snapshot()
	if snap.ShedTotal != 1 || snap.ShedFraction <= 0 {
		t.Fatalf("shed accounting = total %d fraction %v", snap.ShedTotal, snap.ShedFraction)
	}
}
