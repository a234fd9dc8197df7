package stateowned

// Tests of the serving subsystem against real pipeline runs: the
// differential proof that the index answers exactly what a brute-force
// dataset scan answers, end-to-end HTTP tests over a real dataset, a
// concurrent-clients test (meaningful under -race), and the
// readiness-under-chaos contract.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"stateowned/internal/expand"
	"stateowned/internal/serve"
	"stateowned/internal/world"
)

// scanASN is the pre-index brute-force answer: nested linear scans over
// the dataset, exactly what cmd/query did before the serving index.
func scanASN(ds *expand.Dataset, target world.ASN) (orgID string, owned bool, minorityOrgs []string) {
	for i := range ds.Organizations {
		for _, a := range ds.ASNs[i].ASNs {
			if a == target {
				orgID, owned = ds.Organizations[i].OrgID, true
			}
		}
	}
	for _, m := range ds.Minority {
		for _, a := range m.ASNs {
			if a == target {
				minorityOrgs = append(minorityOrgs, m.OrgName)
			}
		}
	}
	return orgID, owned, minorityOrgs
}

// scanCountry brute-force collects a country's org IDs and minority org
// names in the index's canonical order (orgs by OrgID, minority records
// by serve.MinorityLess).
func scanCountry(ds *expand.Dataset, cc string) (orgIDs, minorityOrgs []string) {
	for i := range ds.Organizations {
		if ds.Organizations[i].OperatingCountry() == cc {
			orgIDs = append(orgIDs, ds.Organizations[i].OrgID)
		}
	}
	sort.Strings(orgIDs)
	var minority []expand.MinorityRecord
	for _, m := range ds.Minority {
		if m.CC == cc {
			minority = append(minority, m)
		}
	}
	sort.Slice(minority, func(a, b int) bool { return serve.MinorityLess(&minority[a], &minority[b]) })
	for _, m := range minority {
		minorityOrgs = append(minorityOrgs, m.OrgName)
	}
	return orgIDs, minorityOrgs
}

// TestIndexMatchesScan is the differential proof: for every ASN the
// world contains, every dataset ASN and the numbers either side of it,
// the extremes 0, 1<<24 and math.MaxUint32, and for every country, the
// index must answer exactly what the brute-force scan answers — across
// multiple seeds so the equivalence isn't an artifact of one world.
func TestIndexMatchesScan(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := Run(Config{Seed: seed, Scale: 0.08})
			ds := res.Dataset
			idx := res.Index()

			probes := append([]world.ASN(nil), res.World.ASNList...)
			probes = append(probes, ds.AllASNs()...)
			for _, a := range ds.AllASNs() {
				probes = append(probes, a-1, a+1) // the ASN table's neighbours
			}
			probes = append(probes, 0, 1, 1<<24, 1<<31, math.MaxUint32) // never-allocated ASNs
			for _, a := range probes {
				wantOrg, wantOwned, wantMin := scanASN(ds, a)
				org, minority, owned := idx.ASN(a)
				if owned != wantOwned {
					t.Fatalf("AS%d: index owned=%v, scan owned=%v", a, owned, wantOwned)
				}
				if owned && org.Record.OrgID != wantOrg {
					t.Fatalf("AS%d: index org %s, scan org %s", a, org.Record.OrgID, wantOrg)
				}
				var gotMin []string
				for _, m := range minority {
					gotMin = append(gotMin, m.OrgName)
				}
				if !reflect.DeepEqual(gotMin, wantMin) {
					t.Fatalf("AS%d: index minority %v, scan minority %v", a, gotMin, wantMin)
				}
			}

			ccs := append([]string(nil), res.World.Countries...)
			ccs = append(ccs, "ZZ")
			for _, cc := range ccs {
				wantOrgs, wantMin := scanCountry(ds, cc)
				orgs, minority := idx.Country(cc)
				var gotOrgs, gotMin []string
				for _, o := range orgs {
					gotOrgs = append(gotOrgs, o.Record.OrgID)
				}
				for _, m := range minority {
					gotMin = append(gotMin, m.OrgName)
				}
				if !reflect.DeepEqual(gotOrgs, wantOrgs) {
					t.Fatalf("%s: index orgs %v, scan orgs %v", cc, gotOrgs, wantOrgs)
				}
				if !reflect.DeepEqual(gotMin, wantMin) {
					t.Fatalf("%s: index minority %v, scan minority %v", cc, gotMin, wantMin)
				}
			}

			// Every org resolves by ID to its own row.
			for i := range ds.Organizations {
				org, ok := idx.Org(ds.Organizations[i].OrgID)
				if !ok || org.Record != &ds.Organizations[i] {
					t.Fatalf("org %s does not resolve to its record", ds.Organizations[i].OrgID)
				}
			}
		})
	}
}

// TestResultIndexMemoized checks the lazy accessor builds exactly once.
func TestResultIndexMemoized(t *testing.T) {
	if testRes.Index() != testRes.Index() {
		t.Fatal("Result.Index() rebuilt on second call")
	}
}

// serveTestServer starts an httptest server over the shared pipeline
// run's dataset.
func serveTestServer(t *testing.T) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.New(testRes.Index(), serve.Options{Health: testRes.Health, CacheSize: 256})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func httpGetJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeEndToEnd drives the HTTP API over a real dataset: every ASN
// answer must match the index, and the error paths must hold.
func TestServeEndToEnd(t *testing.T) {
	ts, _ := serveTestServer(t)
	ds := testRes.Dataset

	// One state-owned ASN through the wire.
	asns := ds.AllASNs()
	if len(asns) == 0 {
		t.Fatal("dataset has no ASNs")
	}
	var ar serve.ASNResponse
	if code := httpGetJSON(t, fmt.Sprintf("%s/v1/asn/%d", ts.URL, asns[0]), &ar); code != http.StatusOK {
		t.Fatalf("asn status %d", code)
	}
	if ar.Status != "state-owned" || ar.Organization == nil {
		t.Fatalf("asn response %+v", ar)
	}
	org, _, _ := testRes.Index().ASN(asns[0])
	if ar.Organization.OrgID != org.Record.OrgID {
		t.Fatalf("served org %s, index org %s", ar.Organization.OrgID, org.Record.OrgID)
	}

	// Country of that org round-trips and includes it.
	cc := org.Record.OperatingCountry()
	var cr serve.CountryResponse
	if code := httpGetJSON(t, ts.URL+"/v1/country/"+cc, &cr); code != http.StatusOK {
		t.Fatalf("country status %d", code)
	}
	found := false
	for _, o := range cr.Organizations {
		if o.Organization.OrgID == org.Record.OrgID {
			found = true
		}
	}
	if !found {
		t.Fatalf("org %s missing from its country %s", org.Record.OrgID, cc)
	}

	// Minority holdings surface per-country (the cmd/query fix, over HTTP).
	if len(ds.Minority) > 0 {
		mcc := ds.Minority[0].CC
		var mr serve.CountryResponse
		httpGetJSON(t, ts.URL+"/v1/country/"+mcc, &mr)
		if len(mr.Minority) == 0 {
			t.Fatalf("country %s dropped its minority holdings", mcc)
		}
	}

	// Search finds an org by its own name.
	var sr serve.SearchResponse
	name := ds.Organizations[0].OrgName
	if code := httpGetJSON(t, ts.URL+"/v1/search?name="+urlQueryEscape(name), &sr); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	if len(sr.Hits) == 0 {
		t.Fatalf("search %q found nothing", name)
	}

	// Full dataset export round-trips through the importer, wrapped in
	// the generation/provenance envelope.
	resp, err := http.Get(ts.URL + "/v1/dataset")
	if err != nil {
		t.Fatal(err)
	}
	var wrap serve.DatasetResponse
	err = json.NewDecoder(resp.Body).Decode(&wrap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding dataset envelope: %v", err)
	}
	if wrap.Generation != 0 || wrap.Provenance.Origin != "static" {
		t.Fatalf("dataset envelope = gen %d origin %q", wrap.Generation, wrap.Provenance.Origin)
	}
	got, err := expand.Import(bytes.NewReader(wrap.Dataset))
	if err != nil {
		t.Fatalf("re-importing served dataset: %v", err)
	}
	if len(got.Organizations) != len(ds.Organizations) {
		t.Fatalf("served dataset has %d orgs, want %d", len(got.Organizations), len(ds.Organizations))
	}

	// Error paths.
	var e struct {
		Error string `json:"error"`
	}
	if code := httpGetJSON(t, ts.URL+"/v1/asn/notanumber", &e); code != http.StatusBadRequest {
		t.Fatalf("bad asn: %d", code)
	}
	if code := httpGetJSON(t, ts.URL+"/v1/org/ORG-NOPE", &e); code != http.StatusNotFound {
		t.Fatalf("unknown org: %d", code)
	}
	if code := httpGetJSON(t, ts.URL+"/v1/country/notacc", &e); code != http.StatusBadRequest {
		t.Fatalf("bad country: %d", code)
	}

	// Pristine run: ready.
	var rr serve.ReadyResponse
	if code := httpGetJSON(t, ts.URL+"/readyz", &rr); code != http.StatusOK || !rr.Ready {
		t.Fatalf("pristine readyz: %d %+v", code, rr)
	}
}

func urlQueryEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			out = append(out, '+')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// TestServeConcurrentClients hammers every endpoint from many goroutines
// through one shared server; run under -race this proves the index,
// cache and metrics are safe for concurrent readers and writers.
func TestServeConcurrentClients(t *testing.T) {
	ts, srv := serveTestServer(t)
	asns := testRes.Dataset.AllASNs()
	ccs := testRes.World.Countries

	const clients = 8
	const requestsPerClient = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requestsPerClient; i++ {
				var url string
				switch i % 5 {
				case 0:
					url = fmt.Sprintf("%s/v1/asn/%d", ts.URL, asns[(c+i)%len(asns)])
				case 1:
					url = ts.URL + "/v1/country/" + ccs[(c*7+i)%len(ccs)]
				case 2:
					url = ts.URL + "/v1/search?name=telecom+national"
				case 3:
					url = ts.URL + "/metrics"
				default:
					url = ts.URL + "/readyz"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- fmt.Errorf("GET %s: %w", url, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					errs <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := srv.Metrics().Snapshot()
	if snap.Requests != clients*requestsPerClient {
		t.Fatalf("metrics counted %d requests, want %d", snap.Requests, clients*requestsPerClient)
	}
	if snap.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d", snap.InFlight)
	}
	if st := srv.CacheStats(); st.Hits == 0 {
		t.Fatalf("repeated identical requests never hit the cache: %+v", st)
	}
}

// TestReadyzUnderChaos runs the pipeline under a fault plan and checks
// /readyz mirrors the run's Health verdict: the degraded source lists
// match, and readiness is exactly "no source unavailable".
func TestReadyzUnderChaos(t *testing.T) {
	res := Run(Config{Seed: 7, Scale: 0.08, ChaosSeverity: 0.35})
	srv := serve.New(res.Index(), serve.Options{Health: res.Health})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var rr serve.ReadyResponse
	code := httpGetJSON(t, ts.URL+"/readyz", &rr)

	if !reflect.DeepEqual(rr.DegradedSrc, res.Health.DegradedSources()) {
		t.Fatalf("readyz degraded %v, health %v", rr.DegradedSrc, res.Health.DegradedSources())
	}
	if !reflect.DeepEqual(rr.Unavailable, res.Health.UnavailableSources()) {
		t.Fatalf("readyz unavailable %v, health %v", rr.Unavailable, res.Health.UnavailableSources())
	}
	if len(rr.DegradedSrc) == 0 {
		t.Fatal("chaos 0.35 produced no degraded sources — readyz has nothing to reflect")
	}
	wantReady := len(res.Health.UnavailableSources()) == 0
	if rr.Ready != wantReady {
		t.Fatalf("ready=%v, want %v", rr.Ready, wantReady)
	}
	wantCode := http.StatusOK
	if !wantReady {
		wantCode = http.StatusServiceUnavailable
	}
	if code != wantCode {
		t.Fatalf("readyz status %d, want %d", code, wantCode)
	}
	if rr.ChaosSeverity != 0.35 {
		t.Fatalf("readyz severity %v", rr.ChaosSeverity)
	}

	// Severity 1.0 guarantees an unavailable source (Orbis exhausts its
	// retry budget), so the not-ready path is exercised deterministically.
	res = Run(Config{Seed: 7, Scale: 0.08, ChaosSeverity: 1.0})
	if len(res.Health.UnavailableSources()) == 0 {
		t.Skip("severity 1.0 left all sources available on this seed")
	}
	srv = serve.New(res.Index(), serve.Options{Health: res.Health})
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()
	if code := httpGetJSON(t, ts2.URL+"/readyz", &rr); code != http.StatusServiceUnavailable || rr.Ready {
		t.Fatalf("severity-1.0 readyz: %d %+v", code, rr)
	}
}
