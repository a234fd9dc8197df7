package snapshot

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"stateowned"
	"stateowned/internal/churn"
	"stateowned/internal/durable"
)

// BenchmarkReloadSwap measures the publish step alone — the only part
// of a reload that live traffic can observe. It is one atomic pointer
// store plus ring bookkeeping, so the cost must be O(1) in world size:
// the three scales differ by an order of magnitude in dataset size but
// must land within noise of each other. (EXPERIMENTS.md records the
// numbers.)
func BenchmarkReloadSwap(b *testing.B) {
	for _, scale := range []float64{0.02, 0.05, 0.1} {
		scale := scale
		b.Run(fmt.Sprintf("scale%.2f", scale), func(b *testing.B) {
			s := New(Options{Base: stateowned.Config{Seed: 7, Scale: scale}})
			g := s.build(1, s.Current()) // prebuilt: the benchmark times only the cutover
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.publish(g)
			}
		})
	}
}

// BenchmarkAdvance is the contrast number: a full rebuild+swap cycle,
// dominated by the pipeline build. The gap between this and
// BenchmarkReloadSwap is the reload pause a serve-the-new-generation-
// in-place design would impose on traffic — and the atomic-swap design
// does not.
func BenchmarkAdvance(b *testing.B) {
	s := New(Options{Base: stateowned.Config{Seed: 7, Scale: 0.05}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
}

// advanceScales spans the world sizes the advance, cold-start and
// warm-start benchmarks compare; churnLevels spans the dirtiness axis:
// zero churn is the memo's best case (every node restored), default
// rates the operational case, heavy rates approach a full rebuild.
// EXPERIMENTS.md records the resulting curve.
var advanceScales = []float64{0.5, 1.0, 2.0}

var churnLevels = []struct {
	name  string
	rates churn.Rates
}{
	{"zero", churn.Rates{Privatization: 1e-300, Nationalization: 1e-300, NewSubsidiary: 1e-300}},
	{"default", churn.DefaultRates()},
	{"heavy", churn.Rates{Privatization: 0.15, Nationalization: 0.08, NewSubsidiary: 0.1}},
}

// BenchmarkAdvanceChurn times Advance cycles — each generation rebuilt
// through its parent's artifact memo — on one chain per scale × churn
// cell, and reports the fraction of build-graph nodes restored and the
// fraction of advances that adopted the parent's graph plane.
func BenchmarkAdvanceChurn(b *testing.B) {
	for _, scale := range advanceScales {
		for _, cl := range churnLevels {
			b.Run(fmt.Sprintf("scale%.1f/churn-%s", scale, cl.name), func(b *testing.B) {
				gate := DefaultValidation()
				gate.MaxChurnFraction = 1e9
				s := New(Options{
					Base:       stateowned.Config{Seed: 7, Scale: scale},
					Rates:      cl.rates,
					Validation: &gate,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s.Advance() == nil {
						b.Fatalf("advance quarantined: %v", s.Degraded())
					}
				}
				b.StopTimer()
				built, reused, _, graphs := s.IncrementalCounters()
				if total := built + reused; total > 0 {
					b.ReportMetric(float64(reused)/float64(total), "reused-frac")
				}
				b.ReportMetric(float64(graphs)/float64(b.N), "graph-reused-frac")
			})
		}
	}
}

// BenchmarkAdvanceAtGeneration times one Advance deep into a chain:
// the store advances to generation g untimed, then each iteration times
// the next Advance. Every advance evolves its live parent's world by
// one churn step, so the cost must not grow with g; EXPERIMENTS.md
// records g = 1, 10 and 50.
func BenchmarkAdvanceAtGeneration(b *testing.B) {
	for _, gen := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("scale0.5/gen%d", gen), func(b *testing.B) {
			s := New(Options{Base: stateowned.Config{Seed: 7, Scale: 0.5}})
			for s.Current().Gen < gen {
				if s.Advance() == nil {
					b.Fatalf("advance quarantined: %v", s.Degraded())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Advance() == nil {
					b.Fatalf("advance quarantined: %v", s.Degraded())
				}
			}
		})
	}
}

// BenchmarkColdStart is what a restarted process without -data-dir
// pays before it can serve: the full generation-0 pipeline build, on
// GOMAXPROCS workers. Beside wall time it reports the process's CPU
// time per build (cpu-ms/op) and CPU time over wall time (cores): how
// much of the pool the build keeps busy.
func BenchmarkColdStart(b *testing.B) {
	for _, scale := range advanceScales {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			cpu0 := processCPU(b)
			for i := 0; i < b.N; i++ {
				s := New(Options{Base: stateowned.Config{Seed: 7, Scale: scale}})
				if s.Current() == nil {
					b.Fatal("cold start published nothing")
				}
			}
			cpu := processCPU(b) - cpu0
			b.ReportMetric(float64(cpu.Microseconds())/1e3/float64(b.N), "cpu-ms/op")
			b.ReportMetric(cpu.Seconds()/b.Elapsed().Seconds(), "cores")
		})
	}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkWarmStart is the same boot over a populated archive: open
// (manifest decode + checksum verification of every retained segment),
// restore the newest chain (import, re-export self-check) and recompile
// the serving index — no pipeline build. The gap against
// BenchmarkColdStart is what the durable archive buys a restarted
// replica; EXPERIMENTS.md records the curve across scales.
func BenchmarkWarmStart(b *testing.B) {
	for _, scale := range advanceScales {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			mem := durable.NewMemFS()
			seedArchive, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
			if err != nil {
				b.Fatalf("opening archive: %v", err)
			}
			seedStore := New(Options{Base: stateowned.Config{Seed: 7, Scale: scale}, Archive: seedArchive})
			if c := seedArchive.Counters(); c.Writes == 0 || c.WriteFailures != 0 {
				b.Fatalf("seeding the archive failed: %+v", c)
			}
			_ = seedStore
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := durable.Open(durable.Options{FS: mem, Dir: "arch"})
				if err != nil {
					b.Fatalf("reopening archive: %v", err)
				}
				s := New(Options{Base: stateowned.Config{Seed: 7, Scale: scale}, Archive: a})
				if s.RecoveredGen() != 0 {
					b.Fatalf("warm start fell back to a cold build (recovered %d)", s.RecoveredGen())
				}
			}
		})
	}
}

// BenchmarkStoreResident reports what a store keeps resident: the live
// heap (MB) and heap objects after two forced collections, less the
// process's own before the store was built, for a seed-42 store at
// generation 0 and again after four advances, when the default ring
// holds four generations. It times nothing; scale 7 needs about
// 0.5 GB.
func BenchmarkStoreResident(b *testing.B) {
	for _, scale := range []float64{0.5, 2, 7} {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			var mb, objects [2]float64
			for i := 0; i < b.N; i++ {
				base := liveHeap()
				s := New(Options{Base: stateowned.Config{Seed: 42, Scale: scale}})
				for k := 0; k < 2; k++ {
					if k == 1 {
						for g := 0; g < 4; g++ {
							if s.Advance() == nil {
								b.Fatalf("advance quarantined: %v", s.Degraded())
							}
						}
					}
					m := liveHeap()
					mb[k] += float64(m.HeapAlloc-base.HeapAlloc) / (1 << 20)
					objects[k] += float64(m.HeapObjects - base.HeapObjects)
				}
				runtime.KeepAlive(s)
			}
			n := float64(b.N)
			b.ReportMetric(mb[0]/n, "MB-gen0")
			b.ReportMetric(objects[0]/n, "objects-gen0")
			b.ReportMetric(mb[1]/n, "MB-gen4")
			b.ReportMetric(objects[1]/n, "objects-gen4")
		})
	}
}

// liveHeap reads the heap counters after two forced collections (two,
// so objects freed by finalizers are gone too).
func liveHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
