package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"stateowned/internal/churn"
)

// FuzzServeASNPath drives the /v1/asn/{asn} handler with arbitrary path
// segments. The handler's contract: never panic, answer only 200, 400
// or 404, and always produce a JSON body — no matter what the path
// parser hands it (overflow, signs, leading zeros, percent-escapes,
// non-digits, empty). And the response cache must never show: a cached
// server asked for the path right after its zero-padded twin (the same
// cache key once leading zeros are dropped) answers exactly what an
// uncached server answers.
func FuzzServeASNPath(f *testing.F) {
	for _, seed := range []string{
		"100", "101", "0", "00100", "007",
		"4294967295", "4294967296", "18446744073709551616",
		"-1", "+1", "1e3", " 100", "100 ", "abc", "", ".", "..",
		"0x64", "１００", "100/extra", "%31%30%30", "\x00",
		strings.Repeat("9", 500),
	} {
		f.Add(seed)
	}

	idx := BuildIndex(fixtureDataset())
	uncached := New(idx, Options{})
	f.Fuzz(func(t *testing.T, raw string) {
		// Build the request the way a client would: escape the segment so
		// arbitrary bytes survive URL parsing; skip inputs even the escaper
		// cannot make a valid request-target from.
		target := "/v1/asn/" + url.PathEscape(raw)
		if _, err := url.ParseRequestURI(target); err != nil {
			t.Skip("unroutable request target")
		}
		w := httptest.NewRecorder()
		uncached.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))

		switch w.Code {
		case http.StatusMovedPermanently:
			// Dot segments ("." / "..") are canonicalized by the stdlib mux
			// with a redirect before the handler ever runs.
			return
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("GET %q: unexpected status %d (body %q)", target, w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("GET %q: content-type %q, want application/json", target, ct)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("GET %q: invalid JSON body %q", target, w.Body)
		}

		cached := New(idx, Options{CacheSize: 8})
		twin := "/v1/asn/0" + url.PathEscape(raw)
		cached.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, twin, nil))
		c := httptest.NewRecorder()
		cached.ServeHTTP(c, httptest.NewRequest(http.MethodGet, target, nil))
		if c.Code != w.Code || c.Body.String() != w.Body.String() {
			t.Fatalf("GET %q after %q: cached server answered %d %q, uncached %d %q",
				target, twin, c.Code, c.Body, w.Code, w.Body)
		}
	})
}

// FuzzGenParam drives the generation query parameters — ?gen= on the
// /v1 lookups and ?from=/?to= on /v1/diff — with arbitrary strings
// against a generational source with an eviction horizon. Contract:
// never panic, answer only 200, 400 (malformed or negative), 404
// (never built) or 410 (evicted), and always produce a non-empty valid
// JSON body.
func FuzzGenParam(f *testing.F) {
	for _, seed := range []string{
		"0", "1", "2", "3", "7", "007", "+1", "-1", "-9", "", " ", "1 ",
		"abc", "1.5", "1e2", "0x1", "２",
		"2147483647", "2147483648", "-2147483649",
		"99999999999999999999", "-99999999999999999999",
		strings.Repeat("9", 400), "\x00", "null",
	} {
		f.Add(seed, seed)
	}

	src := &fakeSource{
		views: map[int]*View{
			2: {Gen: 2, Index: BuildIndex(fixtureDataset())},
			3: {Gen: 3, Index: BuildIndex(gen1Dataset())},
		},
		current: 3,
		oldest:  2, // generations 0 and 1 were built, then evicted
		audit:   &churn.Audit{StillValid: 1, MaintenanceFraction: 1},
	}
	srv := NewDynamic(src, Options{CacheSize: 32})

	f.Fuzz(func(t *testing.T, rawA, rawB string) {
		targets := []string{
			"/v1/asn/100?gen=" + url.QueryEscape(rawA),
			"/v1/search?name=angola&gen=" + url.QueryEscape(rawA),
			"/v1/dataset?gen=" + url.QueryEscape(rawA),
			"/v1/diff?from=" + url.QueryEscape(rawA) + "&to=" + url.QueryEscape(rawB),
		}
		for _, target := range targets {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			switch w.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone:
			default:
				t.Fatalf("GET %q: unexpected status %d (body %q)", target, w.Code, w.Body)
			}
			if w.Body.Len() == 0 {
				t.Fatalf("GET %q: empty body", target)
			}
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("GET %q: invalid JSON body %q", target, w.Body)
			}
		}
	})
}

// FuzzAdmissionConfig drives the admission-control configuration
// surface with arbitrary values — negative, zero, huge, overflowing —
// and proves the contract the flag layer relies on: Normalize always
// lands in safe bounds and a limiter built from ANY input serves a
// full admit/shed/release cycle without panicking or deadlocking.
func FuzzAdmissionConfig(f *testing.F) {
	f.Add(0, 0, int64(0), int64(0))
	f.Add(-1, -1, int64(-1), int64(-1))
	f.Add(1, 0, int64(1), int64(time.Second))
	f.Add(math.MaxInt, math.MaxInt, int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(math.MinInt, math.MinInt, int64(math.MinInt64), int64(math.MinInt64))
	f.Add(1<<20, 1<<20, int64(time.Hour), int64(time.Hour))
	f.Add(2, -5, int64(-time.Hour), int64(1))

	f.Fuzz(func(t *testing.T, maxInFlight, maxQueue int, queueWaitNs, retryAfterNs int64) {
		cfg := AdmissionConfig{
			MaxInFlight: maxInFlight,
			MaxQueue:    maxQueue,
			QueueWait:   time.Duration(queueWaitNs),
			RetryAfter:  time.Duration(retryAfterNs),
		}
		norm := cfg.Normalize()
		if norm.MaxInFlight < 1 || norm.MaxInFlight > MaxInFlightCap {
			t.Fatalf("Normalize(%+v).MaxInFlight = %d out of [1, %d]", cfg, norm.MaxInFlight, MaxInFlightCap)
		}
		if norm.MaxQueue < 0 || norm.MaxQueue > MaxInFlightCap {
			t.Fatalf("Normalize(%+v).MaxQueue = %d out of [0, %d]", cfg, norm.MaxQueue, MaxInFlightCap)
		}
		if norm.QueueWait < 0 {
			t.Fatalf("Normalize(%+v).QueueWait = %v negative", cfg, norm.QueueWait)
		}
		if norm.QueueWait == 0 && norm.MaxQueue != 0 {
			t.Fatalf("Normalize(%+v): zero wait with a non-empty queue would park requests forever", cfg)
		}
		if norm.RetryAfter <= 0 {
			t.Fatalf("Normalize(%+v).RetryAfter = %v", cfg, norm.RetryAfter)
		}
		// Normalize is not a fixed point (zero doubles as "use the
		// default", so a normalized no-queue config re-normalizes to the
		// default queue) — but re-normalizing must stay in bounds.
		renorm := norm.Normalize()
		if renorm.MaxInFlight < 1 || renorm.MaxInFlight > MaxInFlightCap ||
			renorm.MaxQueue < 0 || renorm.MaxQueue > MaxInFlightCap || renorm.QueueWait < 0 {
			t.Fatalf("re-Normalize(%+v) = %+v left safe bounds", norm, renorm)
		}

		// A limiter built from the raw config must run a full cycle
		// without panic or deadlock: the instant timer guarantees queue
		// waits cannot park, whatever the durations were.
		l := NewLimiter(cfg, instantFire)
		if l.RetryAfterSeconds() < 1 {
			t.Fatalf("RetryAfterSeconds = %d < 1", l.RetryAfterSeconds())
		}
		var releases []func()
		for i := 0; i < 3; i++ {
			rel, v := l.Acquire(nil)
			if v == Admitted {
				releases = append(releases, rel)
			}
		}
		for _, rel := range releases {
			rel()
		}
		st := l.Stats()
		if st.Admitted+st.ShedQueueFull+st.ShedTimeout+st.ShedCanceled != 3 {
			t.Fatalf("verdicts do not sum: %+v", st)
		}
	})
}
