package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"stateowned/internal/expand"
	"stateowned/internal/world"
)

// benchOrgs is the size of BenchmarkServeHTTP's dataset: with two ASNs
// per organization, its ASNs number twice the response cache.
const benchOrgs = 1024

// benchDataset is a synthetic dataset of benchOrgs organizations, two
// ASNs each, named by benchName.
func benchDataset() *expand.Dataset {
	ds := &expand.Dataset{}
	for i := 0; i < benchOrgs; i++ {
		id := fmt.Sprintf("ORG-%04d", i)
		ds.Organizations = append(ds.Organizations, expand.OrgRecord{
			ConglomerateName: id, OrgID: id, OrgName: benchName(i),
			OwnershipCC: "AO", OwnershipCountryName: "Angola", RIR: "AFRINIC", Source: "website",
		})
		ds.ASNs = append(ds.ASNs, expand.OrgASNs{OrgID: id, ASNs: []world.ASN{benchASN(2 * i), benchASN(2*i + 1)}})
	}
	return ds
}

// benchName is organization i's name: a place of four syllables, unique
// to it, and one of eight kinds, so that a search for one name scores
// about an eighth of the organizations.
func benchName(i int) string {
	syl := [8]string{"ka", "lo", "mi", "ra", "te", "su", "no", "vi"}
	kinds := [8]string{"Telecom", "Networks", "Cable", "Mobile", "Broadband", "Telekom", "Online", "Fibre"}
	return syl[i%8] + syl[i/8%8] + syl[i/64%8] + syl[i/512%8] + " " + kinds[i%8]
}

// benchASN is the dataset's i-th ASN.
func benchASN(i int) world.ASN { return world.ASN(50001 + i) }

// discardWriter is a ResponseWriter that allocates nothing itself: it
// reuses one header map and drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkServeHTTP calls ServeHTTP in process on a server with
// cmd/serve's defaults (cache 1024, admission at DefaultMaxInFlight and
// DefaultQueueWait, DefaultRequestTimeout), so a read pays everything a
// cmd/serve read pays short of the socket: routing, admission, view
// resolution, the cache and, on a miss, the handler's worker and its
// budget. A hit reads one key over and over. A miss cycles over twice
// the cache's capacity of keys in order, so each read's key was evicted
// by the 1024 reads before it. Uncached cycles over the same keys on a
// server with no cache, admission or budget, whose reads all run the
// handler. Requests carry a cancelable context, as net/http's do.
func BenchmarkServeHTTP(b *testing.B) {
	src := &staticSource{view: View{Index: BuildIndex(benchDataset())}}
	s := NewDynamic(src, Options{
		CacheSize:      1024,
		Admission:      &AdmissionConfig{MaxInFlight: DefaultMaxInFlight, QueueWait: DefaultQueueWait},
		RequestTimeout: DefaultRequestTimeout,
	})
	// The server fleet's BenchmarkSingle* and perfbench's warm-start
	// check build.
	bare := NewDynamic(src, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ep := range []struct {
		name string
		path func(i int) string
	}{
		{"asn", func(i int) string { return fmt.Sprintf("/v1/asn/%d", benchASN(i)) }},
		// Two limits per name give the miss cycle its 2048 keys.
		{"search", func(i int) string {
			return fmt.Sprintf("/v1/search?name=%s&limit=%d",
				url.QueryEscape(benchName(i%benchOrgs)), 9+i/benchOrgs)
		}},
	} {
		reqs := make([]*http.Request, 2*benchOrgs)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, ep.path(i), nil).WithContext(ctx)
		}
		b.Run(ep.name+"/hit", func(b *testing.B) { benchServe(b, s, reqs[:1]) })
		b.Run(ep.name+"/miss", func(b *testing.B) { benchServe(b, s, reqs) })
		b.Run(ep.name+"/uncached", func(b *testing.B) { benchServe(b, bare, reqs) })
	}
}

// benchServe serves reqs in turn, once each before the timer starts so
// that the cache holds the steady state, then b.N times.
func benchServe(b *testing.B, s *Server, reqs []*http.Request) {
	w := &discardWriter{h: http.Header{}}
	serve := func(r *http.Request) {
		clear(w.h)
		s.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("%s: status %d", r.URL, w.status)
		}
	}
	for _, r := range reqs {
		serve(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(reqs[i%len(reqs)])
	}
}
