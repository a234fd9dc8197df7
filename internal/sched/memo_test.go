package sched

// Unit tests of the incremental scheduler: dirty-set computation,
// restore semantics, and the trust rule that keeps failed builds out of
// the next memo.

import (
	"errors"
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

func newMemoGraph(fps [3]Fingerprint) *memoGraph {
	m := &memoGraph{g: New()}
	names := []string{"a", "b", "c"}
	for i, name := range names {
		i, name := i, name
		var deps []string
		if i > 0 {
			deps = []string{names[i-1]}
		}
		m.g.AddMemo(name, MemoSpec{
			FP:      fps[i],
			Capture: func() any { return name + "-artifact" },
			Restore: func(v any) { m.restored = append(m.restored, name); m.values[i] = v },
		}, func() error { m.built[i].Add(1); return nil }, deps...)
	}
	return m
}

func TestAddMemoPanics(t *testing.T) {
	ok := MemoSpec{FP: testFP("x"), Capture: func() any { return nil }, Restore: func(any) {}}
	cases := []struct {
		name string
		want string
		do   func(g *Graph)
	}{
		{"zero fingerprint", "zero fingerprint", func(g *Graph) {
			s := ok
			s.FP = Fingerprint{}
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

// TestRunMemoNilPrevMatchesRun: with no prior memo every node is dirty,
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
	g.AddMemo("src", MemoSpec{FP: testFP("src"), Capture: func() any { return 1 }, Restore: func(any) {}},
		func() error { return boom })
	g.AddMemo("down", MemoSpec{FP: testFP("down"), Capture: func() any { return 2 }, Restore: func(any) {}},
		func() error { return nil }, "src")
	g.AddMemo("apart", MemoSpec{FP: testFP("apart"), Capture: func() any { return 3 }, Restore: func(any) {}},
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
		g.AddMemo("n", MemoSpec{FP: testFP("n"), Capture: func() any { return "v" }, Restore: restore},
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
	if next.Len() != 0 {
		t.Errorf("panicked restore left %v in the memo", next.Nodes())
	}
}

// TestRunMemoParallelMatchesSerial: the dirty-set machinery must not
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
