package stateowned

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"stateowned/internal/analysis"
	"stateowned/internal/candidates"
	"stateowned/internal/confirm"
	"stateowned/internal/runner"
)

// The differential determinism proof: a parallel run must be
// bit-identical to the canonical serial schedule — same dataset bytes,
// same analysis tables, same Health notes — for every seed × chaos
// severity combination. The tier-1 recipe runs this file under -race,
// so any unsynchronized sharing between build nodes fails loudly.

// detScale keeps the 2-runs-per-cell matrix affordable; every code path
// (all sources, CTI, all three stages, fault injection) is exercised at
// this scale.
const detScale = 0.08

// healthNotes projects a Health report onto its deterministic parts:
// source rows (by value) and stage notes. Timings and Workers are
// execution measurements and legitimately differ between schedules.
func healthNotes(h *runner.Health) ([]runner.SourceHealth, []runner.StageHealth) {
	rows := make([]runner.SourceHealth, 0, len(h.Sources()))
	for _, sh := range h.Sources() {
		rows = append(rows, *sh)
	}
	return rows, h.Stages
}

// renderedTables regenerates a representative slice of the paper's
// evaluation (the headline, a per-country table, and the ground-truth
// score) from a run.
func renderedTables(res *Result) string {
	d := res.AnalysisData()
	var b bytes.Buffer
	b.WriteString(analysis.RenderHeadline(analysis.ComputeHeadline(d)))
	b.WriteString(analysis.RenderTable1(analysis.ComputeTable1(d)))
	b.WriteString(analysis.RenderScore("score", analysis.ComputeScore(d, nil)))
	return b.String()
}

func exportBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Dataset.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestDeterminismParallelMatchesSerial is the scheduler's proof
// obligation: Run(Workers=8) deep-equals Run(Workers=1) across seeds
// {7, 21, 42} and chaos severities {0, 0.3, 1.0}. In -short mode (the
// tier-1 -race leg) the seed set shrinks to {7}; all severities always
// run.
func TestDeterminismParallelMatchesSerial(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, sev := range []float64{0, 0.3, 1.0} {
			t.Run(fmt.Sprintf("seed%d_sev%.1f", seed, sev), func(t *testing.T) {
				cfg := Config{Seed: seed, Scale: detScale, ChaosSeverity: sev}
				cfg.Workers = 1
				serial := Run(cfg)
				cfg.Workers = 8
				parallel := Run(cfg)

				if !bytes.Equal(exportBytes(t, serial), exportBytes(t, parallel)) {
					t.Error("exported Listing-1 JSON differs between serial and parallel runs")
				}
				if !reflect.DeepEqual(serial.Dataset, parallel.Dataset) {
					t.Error("in-memory dataset differs between serial and parallel runs")
				}
				if !reflect.DeepEqual(serial.Candidates, parallel.Candidates) {
					t.Error("stage-1 candidates differ between serial and parallel runs")
				}
				if !reflect.DeepEqual(serial.Confirmation, parallel.Confirmation) {
					t.Error("stage-2 confirmation differs between serial and parallel runs")
				}
				if !reflect.DeepEqual(serial.CTITop, parallel.CTITop) {
					t.Error("CTI top-2 map differs between serial and parallel runs")
				}
				if got, want := renderedTables(parallel), renderedTables(serial); got != want {
					t.Errorf("analysis tables differ between serial and parallel runs:\nserial:\n%s\nparallel:\n%s", want, got)
				}

				sSrc, sStages := healthNotes(serial.Health)
				pSrc, pStages := healthNotes(parallel.Health)
				if !reflect.DeepEqual(sSrc, pSrc) {
					t.Errorf("health source rows differ:\nserial:   %+v\nparallel: %+v", sSrc, pSrc)
				}
				if !reflect.DeepEqual(sStages, pStages) {
					t.Errorf("health stage notes differ:\nserial:   %+v\nparallel: %+v", sStages, pStages)
				}
				if got, want := parallel.Health.Render(), serial.Health.Render(); got != want {
					t.Errorf("rendered health reports differ:\nserial:\n%s\nparallel:\n%s", want, got)
				}

				// Timings are the one sanctioned difference: both runs must
				// still record one entry per build node.
				if len(serial.Health.Timings) == 0 ||
					len(serial.Health.Timings) != len(parallel.Health.Timings) {
					t.Errorf("timings rows: serial %d, parallel %d",
						len(serial.Health.Timings), len(parallel.Health.Timings))
				}
			})
		}
	}
}

// TestDeterminismWorkerCountSweep pins a second axis: every pool size
// gives the same bytes, not just the 1-vs-8 pair.
func TestDeterminismWorkerCountSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("worker sweep runs in the full (non-short) suite")
	}
	base := Config{Seed: 21, Scale: detScale, ChaosSeverity: 0.3, Workers: 1}
	want := exportBytes(t, Run(base))
	for _, workers := range []int{2, 3, 5, 16} {
		cfg := base
		cfg.Workers = workers
		if !bytes.Equal(want, exportBytes(t, Run(cfg))) {
			t.Errorf("Workers=%d changed the exported dataset", workers)
		}
	}
}

// TestDeterminismStagesAcrossWorkers holds stages 1 and 2 to their own
// pools: over one serial run's inputs on a scale-0.5 world,
// candidates.Run and confirm.Run deep-equal their Workers=1 answers at
// 2, 3 and 8 workers, for seeds {7, 21, 42}. -short (the tier-1 -race
// leg, which checks the per-worker analyst caches) runs seed 42.
func TestDeterminismStagesAcrossWorkers(t *testing.T) {
	seeds := []uint64{7, 21, 42}
	if testing.Short() {
		seeds = seeds[2:]
	}
	for _, seed := range seeds {
		res := Run(Config{Seed: seed, Scale: 0.5, Workers: 1})
		var cands0 *candidates.Result
		var conf0 *confirm.Result
		for _, workers := range []int{1, 2, 3, 8} {
			cands := runStage1(res, res.Config, workers)
			conf := confirm.Run(confirm.Inputs{
				WHOIS: res.WHOIS, PeeringDB: res.PeeringDB, Docs: res.Docs, Workers: workers,
			}, cands.Companies)
			if workers == 1 {
				cands0, conf0 = cands, conf
				if !reflect.DeepEqual(cands, res.Candidates) || !reflect.DeepEqual(conf, res.Confirmation) {
					t.Fatalf("seed %d: a serial rerun of the stages differs from the run's own", seed)
				}
				if len(conf.Confirmed) == 0 || len(conf.Excluded) == 0 {
					t.Fatalf("seed %d: fixture confirmed %d and excluded %d companies; want both",
						seed, len(conf.Confirmed), len(conf.Excluded))
				}
				continue
			}
			if !reflect.DeepEqual(cands, cands0) {
				t.Errorf("seed %d: stage-1 candidates at %d workers differ from the serial run's", seed, workers)
			}
			if !reflect.DeepEqual(conf, conf0) {
				t.Errorf("seed %d: stage-2 confirmation at %d workers differs from the serial run's", seed, workers)
			}
		}
	}
}
