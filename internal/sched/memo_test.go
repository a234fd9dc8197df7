package sched

// Unit tests of the incremental scheduler: the reuse rule, the output
// cutoff, restore semantics, and the trust rule that keeps failed
// builds out of the next memo.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// testFP hashes a label into a distinct non-zero fingerprint.
func testFP(label string) Fingerprint {
	h := NewHasher("test")
	h.Str(label)
	return h.Sum()
}

// memoGraph is a linear chain a -> b -> c where every node is
// memoizable, each capturing a counter of how many times it actually
// built. built[i] counts executions of node i's fn; the restore log
// records which nodes adopted artifacts.
type memoGraph struct {
	g        *Graph
	built    [3]atomic.Int64
	restored []string
	values   [3]any
}

func newMemoGraph(fps [3]Fingerprint) *memoGraph { return newHeadGraph(fps, head{}) }

// head varies the memoGraph chain's first node a.
type head struct {
	// tag suffixes every artifact the chain captures, so a test can
	// tell which run built the value a node holds.
	tag string
	// output becomes a's MemoSpec.Output (nil: none).
	output func() Fingerprint
	// build runs inside a's fn (nil: a succeeds).
	build func() error
}

func newHeadGraph(fps [3]Fingerprint, h head) *memoGraph {
	m := &memoGraph{g: New()}
	names := []string{"a", "b", "c"}
	for i, name := range names {
		i, name := i, name
		var deps []string
		spec := MemoSpec{
			FP:      func() Fingerprint { return fps[i] },
			Capture: func() any { return name + "-artifact" + h.tag },
			Restore: func(v any) { m.restored = append(m.restored, name); m.values[i] = v },
		}
		fn := func() error { m.built[i].Add(1); return nil }
		if i > 0 {
			deps = []string{names[i-1]}
		} else {
			spec.Output = h.output
			if h.build != nil {
				fn = func() error { m.built[i].Add(1); return h.build() }
			}
		}
		m.g.AddMemo(name, spec, fn, deps...)
	}
	return m
}

func TestAddMemoPanics(t *testing.T) {
	ok := MemoSpec{FP: func() Fingerprint { return testFP("x") }, Capture: func() any { return nil }, Restore: func(any) {}}
	cases := []struct {
		name string
		want string
		do   func(g *Graph)
	}{
		{"nil fingerprint", "nil fingerprint", func(g *Graph) {
			s := ok
			s.FP = nil
			g.AddMemo("n", s, func() error { return nil })
		}},
		{"nil capture", "needs Capture and Restore", func(g *Graph) {
			s := ok
			s.Capture = nil
			g.AddMemo("n", s, func() error { return nil })
		}},
		{"nil restore", "needs Capture and Restore", func(g *Graph) {
			s := ok
			s.Restore = nil
			g.AddMemo("n", s, func() error { return nil })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("AddMemo did not panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v, want substring %q", r, tc.want)
				}
			}()
			tc.do(New())
		})
	}
}

// TestRunMemoNilPrevMatchesRun: with no prior memo every node rebuilds,
// so RunMemo is the full build — every node runs once — and the
// returned memo captures every node.
func TestRunMemoNilPrevMatchesRun(t *testing.T) {
	fps := [3]Fingerprint{testFP("a"), testFP("b"), testFP("c")}
	m := newMemoGraph(fps)
	results, next := m.g.RunMemo(1, nil)
	for i, r := range results {
		if r.Err != nil || r.Reused {
			t.Errorf("node %d: err=%v reused=%v, want built cleanly", i, r.Err, r.Reused)
		}
	}
	for i := range m.built {
		if n := m.built[i].Load(); n != 1 {
			t.Errorf("node %d built %d times, want 1", i, n)
		}
	}
	if got := next.Nodes(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("memo nodes = %v, want [a b c]", got)
	}
	if art, ok := next.Lookup("b"); !ok || art.FP != fps[1] || art.Value != "b-artifact" {
		t.Errorf("memoized b = %+v (ok=%v), want captured artifact under its fingerprint", art, ok)
	}
}

// TestRunMemoCleanChainRestores: unchanged fingerprints restore every
// artifact without executing a single fn, marking all results Reused.
func TestRunMemoCleanChainRestores(t *testing.T) {
	fps := [3]Fingerprint{testFP("a"), testFP("b"), testFP("c")}
	first := newMemoGraph(fps)
	_, memo := first.g.RunMemo(1, nil)

	second := newMemoGraph(fps)
	results, next := second.g.RunMemo(1, memo)
	for _, r := range results {
		if !r.Reused || r.Err != nil {
			t.Errorf("node %s: reused=%v err=%v, want clean restore", r.Name, r.Reused, r.Err)
		}
	}
	for i := range second.built {
		if n := second.built[i].Load(); n != 0 {
			t.Errorf("node %d built %d times on a clean rebuild, want 0", i, n)
		}
	}
	if !reflect.DeepEqual(second.restored, []string{"a", "b", "c"}) {
		t.Errorf("restore order = %v, want serial declaration order", second.restored)
	}
	if second.values[2] != "c-artifact" {
		t.Errorf("restored value = %v, want the captured artifact", second.values[2])
	}
	// The next memo must carry the artifacts forward untouched.
	if art, _ := next.Lookup("c"); art.Value != "c-artifact" {
		t.Errorf("forwarded artifact = %v, want c-artifact", art.Value)
	}
}

// TestRunMemoDirtinessPropagates: a changed fingerprint rebuilds the
// node and everything downstream of it.
func TestRunMemoDirtinessPropagates(t *testing.T) {
	fps := [3]Fingerprint{testFP("a"), testFP("b"), testFP("c")}
	first := newMemoGraph(fps)
	_, memo := first.g.RunMemo(1, nil)

	fps[0] = testFP("a-changed")
	second := newMemoGraph(fps)
	results, _ := second.g.RunMemo(1, memo)
	for _, r := range results {
		if r.Reused {
			t.Errorf("node %s reused despite upstream dirtiness", r.Name)
		}
	}
	for i := range second.built {
		if n := second.built[i].Load(); n != 1 {
			t.Errorf("node %d built %d times, want 1 (dirtiness must propagate)", i, n)
		}
	}
}

// TestRunMemoTrustRule: a failed node is excluded from the next memo,
// and the exclusion propagates to dependents built on top of it, while
// nodes off the failed node's paths stay trusted.
func TestRunMemoTrustRule(t *testing.T) {
	boom := errors.New("boom")
	g := New()
	g.AddMemo("src", MemoSpec{FP: func() Fingerprint { return testFP("src") }, Capture: func() any { return 1 }, Restore: func(any) {}},
		func() error { return boom })
	g.AddMemo("down", MemoSpec{FP: func() Fingerprint { return testFP("down") }, Capture: func() any { return 2 }, Restore: func(any) {}},
		func() error { return nil }, "src")
	g.AddMemo("apart", MemoSpec{FP: func() Fingerprint { return testFP("apart") }, Capture: func() any { return 3 }, Restore: func(any) {}},
		func() error { return nil })
	results, next := g.RunMemo(1, nil)
	if !errors.Is(results[0].Err, boom) {
		t.Fatalf("src err = %v, want boom", results[0].Err)
	}
	if got := next.Nodes(); !reflect.DeepEqual(got, []string{"apart"}) {
		t.Errorf("memo nodes = %v, want only [apart]: failed nodes and their "+
			"dependents must not seed the next generation", got)
	}
}

// TestRunMemoPanickingRestoreIsGuarded: a panicking Restore degrades
// exactly like a panicking build — node error, no process death, and no
// artifact for the node in the next memo.
func TestRunMemoPanickingRestoreIsGuarded(t *testing.T) {
	mk := func(restore func(any)) (*Graph, *atomic.Int64) {
		var built atomic.Int64
		g := New()
		g.AddMemo("n", MemoSpec{FP: func() Fingerprint { return testFP("n") }, Capture: func() any { return "v" }, Restore: restore},
			func() error { built.Add(1); return nil })
		return g, &built
	}
	g1, _ := mk(func(any) {})
	_, memo := g1.RunMemo(1, nil)

	g2, built := mk(func(any) { panic("corrupt artifact") })
	results, next := g2.RunMemo(2, memo)
	if built.Load() != 0 {
		t.Error("fn ran despite a clean fingerprint")
	}
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("err = %v, want a guarded PanicError", results[0].Err)
	}
	if !results[0].Reused {
		t.Error("result not marked Reused (the restore path ran)")
	}
	if len(next.Nodes()) != 0 {
		t.Errorf("panicked restore left %v in the memo", next.Nodes())
	}
}

// TestRunMemoFingerprintInSlot: a node computes its fingerprint once,
// at its own start, after its dependencies completed. A fingerprint
// that comes back zero, or panics, fails the node like a panicking
// build: the node counts as changed, so its dependent rebuilds, and
// neither enters the next memo.
func TestRunMemoFingerprintInSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		fp   func() Fingerprint
		want string
	}{
		{"zero", func() Fingerprint { return Fingerprint{} }, "zero fingerprint"},
		{"panic", func() Fingerprint { panic("unhashable input") }, "unhashable input"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls, order []string
			var downBuilt atomic.Int64
			mk := func(fp func() Fingerprint) *Graph {
				g := New()
				g.AddMemo("n", MemoSpec{FP: func() Fingerprint {
					calls = append(calls, "n")
					return fp()
				}, Capture: func() any { return "v" }, Restore: func(any) {}},
					func() error { order = append(order, "n"); return nil })
				g.AddMemo("down", MemoSpec{FP: func() Fingerprint {
					calls = append(calls, "down")
					order = append(order, "down fp")
					return testFP("down")
				}, Capture: func() any { return "w" }, Restore: func(any) {}},
					func() error { downBuilt.Add(1); return nil }, "n")
				return g
			}
			_, memo := mk(func() Fingerprint { return testFP("n") }).RunMemo(1, nil)
			if !reflect.DeepEqual(calls, []string{"n", "down"}) ||
				!reflect.DeepEqual(order, []string{"n", "down fp"}) {
				t.Fatalf("fingerprint calls %v, order %v: want each node's once, after its dependency", calls, order)
			}
			downBuilt.Store(0)
			results, next := mk(tc.fp).RunMemo(1, memo)
			var pe *PanicError
			if !errors.As(results[0].Err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), tc.want) {
				t.Fatalf("err = %v, want a guarded PanicError naming %q", results[0].Err, tc.want)
			}
			if downBuilt.Load() != 1 || results[1].Reused {
				t.Error("the dependent restored although its dependency's fingerprint failed")
			}
			if got := next.Nodes(); len(got) != 0 {
				t.Errorf("memo nodes = %v, want none", got)
			}
		})
	}
}

// TestRunMemoParallelMatchesSerial: the reuse decision must not
// depend on worker count — same reuse decisions and same memo at any
// pool size.
func TestRunMemoParallelMatchesSerial(t *testing.T) {
	fps := [3]Fingerprint{testFP("a"), testFP("b"), testFP("c")}
	build := func(workers int) ([]NodeResult, *Memo) {
		first := newMemoGraph(fps)
		_, memo := first.g.RunMemo(workers, nil)
		second := newMemoGraph([3]Fingerprint{testFP("a-changed"), fps[1], fps[2]})
		return second.g.RunMemo(workers, memo)
	}
	r1, m1 := build(1)
	r8, m8 := build(8)
	for i := range r1 {
		if r1[i].Reused != r8[i].Reused || (r1[i].Err == nil) != (r8[i].Err == nil) {
			t.Errorf("node %s: serial (reused=%v) vs parallel (reused=%v) disagree",
				r1[i].Name, r1[i].Reused, r8[i].Reused)
		}
	}
	if !reflect.DeepEqual(m1.Nodes(), m8.Nodes()) {
		t.Errorf("memo contents differ: serial %v vs parallel %v", m1.Nodes(), m8.Nodes())
	}
}

// constOutput returns an Output func that always reports label's
// fingerprint.
func constOutput(label string) func() Fingerprint {
	fp := testFP(label)
	return func() Fingerprint { return fp }
}

// outputRun records a chain under the first head, then rebuilds it
// with a's input fingerprint changed under the second head and returns
// the rebuilt chain, its results and its memo.
func outputRun(t *testing.T, workers int, first, second head) (*memoGraph, []NodeResult, *Memo) {
	t.Helper()
	fps := [3]Fingerprint{testFP("a"), testFP("b"), testFP("c")}
	first.tag = "-first"
	_, memo := newHeadGraph(fps, first).g.RunMemo(workers, nil)
	fps[0] = testFP("a-changed")
	second.tag = "-second"
	m := newHeadGraph(fps, second)
	results, next := m.g.RunMemo(workers, memo)
	return m, results, next
}

// TestRunMemoOutputCutoff: a node that rebuilds to the output its
// memoized artifact recorded restores that artifact, and its
// dependents count it unchanged: they restore the stored values without
// building, and the next memo carries the previous artifacts under the
// head's new input fingerprint.
func TestRunMemoOutputCutoff(t *testing.T) {
	same := head{output: constOutput("same")}
	m, results, next := outputRun(t, 1, same, same)
	if n := m.built[0].Load(); n != 1 || results[0].Reused || results[0].Err != nil {
		t.Errorf("a: built %d times, reused=%v err=%v; want one clean build, not reused",
			n, results[0].Reused, results[0].Err)
	}
	for i := 1; i < 3; i++ {
		if n := m.built[i].Load(); n != 0 || !results[i].Reused {
			t.Errorf("%s: built %d times, reused=%v; want restored behind an unchanged output",
				results[i].Name, n, results[i].Reused)
		}
	}
	if want := [3]any{"a-artifact-first", "b-artifact-first", "c-artifact-first"}; m.values != want {
		t.Errorf("values = %v, want the stored artifacts %v", m.values, want)
	}
	a, _ := next.Lookup("a")
	if a.FP != testFP("a-changed") || a.Value != "a-artifact-first" || a.output != testFP("same") {
		t.Errorf("next memo a = %+v, want the stored value and output under the new fingerprint", a)
	}

	// The memo the cutoff wrote cuts off again.
	third := newHeadGraph([3]Fingerprint{testFP("a-third"), testFP("b"), testFP("c")}, same)
	results, _ = third.g.RunMemo(1, next)
	if third.built[0].Load() != 1 || !results[1].Reused || !results[2].Reused {
		t.Errorf("a memo written by the cutoff did not cut off again: %+v", results)
	}
}

// TestRunMemoOutputChangedRebuilds: an output that differs from the
// stored one, or a memo that stored none, rebuilds the dependents.
func TestRunMemoOutputChangedRebuilds(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second head
	}{
		{"unequal output", head{output: constOutput("same")}, head{output: constOutput("other")}},
		{"no stored output", head{}, head{output: constOutput("same")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, results, next := outputRun(t, 1, tc.first, tc.second)
			for i, r := range results {
				if n := m.built[i].Load(); n != 1 || r.Reused {
					t.Errorf("%s: built %d times, reused=%v; want rebuilt", r.Name, n, r.Reused)
				}
			}
			if a, _ := next.Lookup("a"); a.Value != "a-artifact-second" || a.output != tc.second.output() {
				t.Errorf("next memo a = %+v, want the new build and its output", a)
			}
		})
	}
}

// TestRunMemoOutputFailedBuild: a node with Output whose build errors or
// panics counts as changed even though its output was never taken, so
// its dependents rebuild, and the trust rule keeps all of them out of
// the next memo.
func TestRunMemoOutputFailedBuild(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() error
	}{
		{"error", func() error { return errors.New("boom") }},
		{"panic", func() error { panic("boom") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			same := head{output: constOutput("same")}
			failing := head{output: same.output, build: tc.build}
			m, results, next := outputRun(t, 1, same, failing)
			if results[0].Err == nil {
				t.Fatal("a's failure was not reported")
			}
			for i := 1; i < 3; i++ {
				if n := m.built[i].Load(); n != 1 || results[i].Reused {
					t.Errorf("%s: built %d times, reused=%v; want rebuilt after a failed head",
						results[i].Name, n, results[i].Reused)
				}
			}
			if got := next.Nodes(); len(got) != 0 {
				t.Errorf("memo nodes = %v, want none: a failed and b, c were built over it", got)
			}
		})
	}
}

// TestRunMemoOutputParallelMatchesSerial: the output cutoff decides the
// same at any pool size. Dependents read the head's outcome on pool
// goroutines, so run it under -race.
func TestRunMemoOutputParallelMatchesSerial(t *testing.T) {
	cases := map[string][2]head{
		"equal":   {{output: constOutput("same")}, {output: constOutput("same")}},
		"unequal": {{output: constOutput("same")}, {output: constOutput("other")}},
		"failed":  {{output: constOutput("same")}, {output: constOutput("same"), build: func() error { panic("boom") }}},
	}
	for name, hs := range cases {
		m1, r1, n1 := outputRun(t, 1, hs[0], hs[1])
		m4, r4, n4 := outputRun(t, 4, hs[0], hs[1])
		for i := range r1 {
			if r1[i].Reused != r4[i].Reused || (r1[i].Err == nil) != (r4[i].Err == nil) ||
				m1.built[i].Load() != m4.built[i].Load() {
				t.Errorf("%s: node %s differs between 1 and 4 workers", name, r1[i].Name)
			}
		}
		if m1.values != m4.values {
			t.Errorf("%s: restored values %v (1 worker) vs %v (4 workers)", name, m1.values, m4.values)
		}
		if !reflect.DeepEqual(n1.Nodes(), n4.Nodes()) {
			t.Errorf("%s: memo %v (1 worker) vs %v (4 workers)", name, n1.Nodes(), n4.Nodes())
		}
	}
}
