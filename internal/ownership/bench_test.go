package ownership_test

import (
	"fmt"
	"testing"

	"stateowned/internal/world"
)

// BenchmarkControlFixpoint times one full control fixpoint, which the
// first ControlOf after any mutation pays. Each iteration takes a
// clone of a resolved seed-42 world graph, dirties it by removing and
// re-adding one holding (untimed), and times the ControlOf that
// resolves it.
func BenchmarkControlFixpoint(b *testing.B) {
	for _, scale := range []float64{0.5, 2, 7} {
		b.Run(fmt.Sprintf("scale%g", scale), func(b *testing.B) {
			w := world.Generate(world.Config{Seed: 42, Scale: scale})
			op := w.Operators[w.OperatorIDs[0]]
			w.Graph.ControlOf(op.Entity)
			h := w.Graph.Holders(op.Entity)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := w.Graph.Clone()
				g.RemoveHolding(h.Holder, h.Target)
				g.MustAddHolding(h)
				b.StartTimer()
				g.ControlOf(op.Entity)
			}
			b.ReportMetric(float64(w.Graph.NumEntities()), "entities")
		})
	}
}
