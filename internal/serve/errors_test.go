package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestErrorEnvelopeShape drives one request through the real HTTP
// surface for every /v1 error class — 400, 404, 410, 503 and 504 — and
// asserts the unified envelope contract: Content-Type
// application/json, a body that is exactly {error, status} with the
// status echoing the HTTP code, the canonical encoder's two-space
// indent and trailing newline, and no response cache header leaking on
// non-deterministic errors.
func TestErrorEnvelopeShape(t *testing.T) {
	cases := []struct {
		name   string
		status int
		build  func(t *testing.T) (*Server, string, func())
	}{
		{
			name:   "400 malformed ASN",
			status: http.StatusBadRequest,
			build: func(t *testing.T) (*Server, string, func()) {
				return newTestServer(t, Options{}), "/v1/asn/abc", nil
			},
		},
		{
			name:   "404 unknown organization",
			status: http.StatusNotFound,
			build: func(t *testing.T) (*Server, string, func()) {
				return newTestServer(t, Options{}), "/v1/org/ORG-9999", nil
			},
		},
		{
			name:   "404 unknown generation",
			status: http.StatusNotFound,
			build: func(t *testing.T) (*Server, string, func()) {
				return newGenServer(t, newFakeSource(), Options{}), "/v1/asn/100?gen=7", nil
			},
		},
		{
			name:   "410 evicted generation",
			status: http.StatusGone,
			build: func(t *testing.T) (*Server, string, func()) {
				src := newFakeSource()
				delete(src.views, 0)
				src.oldest = 1
				return newGenServer(t, src, Options{}), "/v1/asn/100?gen=0", nil
			},
		},
		{
			name:   "503 admission shed",
			status: http.StatusServiceUnavailable,
			build: func(t *testing.T) (*Server, string, func()) {
				// Wedge one request in the single admission slot; the
				// table's request is then shed at the door.
				src := newGateSource(newFakeSource(), 1)
				s := NewDynamic(src, Options{
					Clock:     testClock(1),
					Admission: &AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
				})
				go do(t, s, "/v1/asn/100")
				src.waitBlocked(t, 1)
				return s, "/v1/asn/100", func() { close(src.gate) }
			},
		},
		{
			name:   "504 deadline exceeded",
			status: http.StatusGatewayTimeout,
			build: func(t *testing.T) (*Server, string, func()) {
				src := newGateSource(newFakeSource(), 1)
				s := NewDynamic(src, Options{
					Clock:          testClock(1),
					RequestTimeout: time.Second, // virtual: instantFire decides
					After:          instantFire,
				})
				return s, "/v1/asn/100", func() { close(src.gate) }
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, path, teardown := tc.build(t)
			if teardown != nil {
				defer teardown()
			}
			w := do(t, s, path)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.status, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}

			// The body is exactly the envelope: {error, status}, nothing
			// else, status echoing the wire code, error human-readable.
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("body is not the JSON envelope: %v (%s)", err, w.Body.String())
			}
			if eb.Status != tc.status {
				t.Fatalf("envelope status %d, want %d", eb.Status, tc.status)
			}
			if eb.Error == "" {
				t.Fatal("envelope error message is empty")
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(w.Body.Bytes(), &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 2 {
				t.Fatalf("envelope has %d fields %v, want exactly {error, status}", len(keys), keys)
			}

			// Canonical encoder: two-space indent, trailing newline — the
			// byte-level contract the fleet router's envelopes share.
			if !strings.HasSuffix(w.Body.String(), "}\n") {
				t.Fatalf("body does not end with the canonical newline: %q", w.Body.String())
			}
			if !strings.Contains(w.Body.String(), "\n  \"error\"") {
				t.Fatalf("body is not two-space indented: %q", w.Body.String())
			}
		})
	}
}
