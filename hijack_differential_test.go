package stateowned

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stateowned/internal/bgp"
	"stateowned/internal/hijack"
	"stateowned/internal/world"
)

// The adversarial differential battery: three independent oracles pin
// the hijack subsystem.
//
//  1. rov=1.0 neutralizes every campaign, so the whole run — dataset
//     bytes, CTI, detection report — must be byte-identical to the
//     honest simulator's.
//  2. A zero-campaign run must be byte-identical to the committed
//     golden fixture even with the other adversary knobs set, because
//     severity 0 is the off switch.
//  3. The served detection report must equal an independent naive
//     origin-vs-ownership scan of freshly collected paths.

// reportJSON canonicalizes a detection report for byte comparison.
func reportJSON(t *testing.T, rep *hijack.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

func TestHijackFullROVMatchesHonest(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, sev := range []float64{0.5, 1.0} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("seed%d_sev%.1f_w%d", seed, sev, workers), func(t *testing.T) {
					honest := Run(Config{Seed: seed, Scale: detScale, Workers: workers})
					gated := Run(Config{
						Seed: seed, Scale: detScale, Workers: workers,
						HijackSeverity: sev, ROVFraction: 1.0,
					})
					if !bytes.Equal(exportBytes(t, honest), exportBytes(t, gated)) {
						t.Error("rov=1.0 exported dataset differs from the honest run")
					}
					if !reflect.DeepEqual(honest.CTITop, gated.CTITop) {
						t.Error("rov=1.0 CTI top map differs from the honest run")
					}
					if !bytes.Equal(reportJSON(t, honest.Hijacks), reportJSON(t, gated.Hijacks)) {
						t.Errorf("rov=1.0 detection report differs from honest:\nhonest: %s\ngated:  %s",
							reportJSON(t, honest.Hijacks), reportJSON(t, gated.Hijacks))
					}
					if len(gated.Hijacks.Detections) != 0 {
						t.Errorf("rov=1.0 run detected %d origin changes", len(gated.Hijacks.Detections))
					}
					if gated.Hijacks.Monitors == 0 {
						t.Error("detection report lost its monitor count")
					}
				})
			}
		}
	}
}

// The committed golden fixture was produced with no adversary fields at
// all; a run with severity 0 — whatever the other knobs say — must
// reproduce it bit for bit.
func TestHijackSeverityZeroMatchesGolden(t *testing.T) {
	got := exportBytes(t, Run(Config{
		Seed: goldenSeed, Scale: goldenScale,
		HijackSeverity: 0, HijackSeed: 999, ROVFraction: 0.7,
	}))
	want, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test -run Golden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("severity-0 dataset drifted from the golden fixture:\n%s", firstDiff(want, got))
	}
}

// The pipeline's detection report must equal what an independent scan
// derives from scratch: re-plan the campaigns, re-collect the paths,
// re-count every (victim, terminal-AS) mismatch by hand.
func TestHijackDetectionMatchesNaiveScan(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d_w%d", seed, workers), func(t *testing.T) {
				cfg := Config{
					Seed: seed, Scale: detScale, Workers: workers,
					HijackSeverity: 0.8, ROVFraction: 0.25,
				}
				res := Run(cfg)
				if len(res.Hijacks.Detections) == 0 {
					t.Fatal("severity 0.8 produced no detections; battery is vacuous")
				}

				plan := hijack.NewPlan(res.World, res.Topology, hijack.Config{
					Severity: cfg.HijackSeverity, Seed: cfg.HijackSeed, ROVFraction: cfg.ROVFraction,
				})
				victims := plan.Victims()
				mp := bgp.CollectPaths(res.Topology, res.Monitors, victims, 1, plan.Adversary())

				type change struct{ victim, observed world.ASN }
				naive := map[change]int{}
				for mi := range res.Monitors {
					for _, v := range victims {
						if p := mp.Path(mi, v); len(p) > 0 && p[len(p)-1] != v {
							naive[change{v, p[len(p)-1]}]++
						}
					}
				}
				if len(naive) != len(res.Hijacks.Detections) {
					t.Fatalf("naive scan found %d origin changes, pipeline reported %d",
						len(naive), len(res.Hijacks.Detections))
				}
				for _, d := range res.Hijacks.Detections {
					if naive[change{d.Victim, d.Observed}] != d.Monitors {
						t.Errorf("detection %d→%d: pipeline counts %d monitors, naive scan %d",
							d.Victim, d.Observed, d.Monitors, naive[change{d.Victim, d.Observed}])
					}
				}
				if res.Hijacks.Monitors != len(res.Monitors) {
					t.Errorf("report monitor count %d, run selected %d", res.Hijacks.Monitors, len(res.Monitors))
				}

				// And the report itself is worker-invariant: an 8-worker twin
				// serves the same bytes.
				twin := cfg
				twin.Workers = 8
				if a, b := reportJSON(t, res.Hijacks), reportJSON(t, Run(twin).Hijacks); !bytes.Equal(a, b) {
					t.Error("detection report differs between worker counts")
				}
			})
		}
	}
}
