package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// add declares a node under a fingerprint of its own name with inert
// Capture/Restore: with no previous memo, every node builds.
func add(g *Graph, name string, fn func() error, deps ...string) {
	g.AddMemo(name, MemoSpec{
		FP:      func() Fingerprint { return testFP(name) },
		Capture: func() any { return nil },
		Restore: func(any) {},
	}, fn, deps...)
}

// run is the full build: RunMemo with no previous memo.
func run(g *Graph, workers int) []NodeResult {
	results, _ := g.RunMemo(workers, nil)
	return results
}

// diamond declares the classic diamond DAG (a -> b,c -> d) and records
// execution order into a synchronized log.
func diamond(log *orderLog) *Graph {
	g := New()
	add(g, "a", log.fn("a"))
	add(g, "b", log.fn("b"), "a")
	add(g, "c", log.fn("c"), "a")
	add(g, "d", log.fn("d"), "b", "c")
	return g
}

type orderLog struct {
	mu    sync.Mutex
	order []string
}

func (l *orderLog) fn(name string) func() error {
	return func() error {
		l.mu.Lock()
		l.order = append(l.order, name)
		l.mu.Unlock()
		return nil
	}
}

func (l *orderLog) got() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

func TestSerialRunsInDeclarationOrder(t *testing.T) {
	var log orderLog
	g := diamond(&log)
	results := run(g, 1)
	want := []string{"a", "b", "c", "d"}
	if got := log.got(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("serial order = %v, want %v", got, want)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Name != want[i] {
			t.Errorf("results[%d].Name = %q, want %q (results must be in declaration order)", i, r.Name, want[i])
		}
		if r.Err != nil {
			t.Errorf("node %s: unexpected error %v", r.Name, r.Err)
		}
	}
}

func TestParallelRespectsDependencies(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		var log orderLog
		g := diamond(&log)
		run(g, workers)
		got := log.got()
		if len(got) != 4 {
			t.Fatalf("workers=%d: ran %d nodes, want 4 (%v)", workers, len(got), got)
		}
		pos := map[string]int{}
		for i, n := range got {
			pos[n] = i
		}
		if pos["a"] != 0 {
			t.Errorf("workers=%d: root a ran at position %d (%v)", workers, pos["a"], got)
		}
		if pos["d"] != 3 {
			t.Errorf("workers=%d: sink d ran at position %d (%v)", workers, pos["d"], got)
		}
	}
}

// TestParallelActuallyOverlaps proves two ready roots are in flight at
// the same time: each node blocks until the other has started, which
// can only complete if the pool really runs them concurrently.
func TestParallelActuallyOverlaps(t *testing.T) {
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	g := New()
	add(g, "a", func() error {
		close(aStarted)
		<-bStarted
		return nil
	})
	add(g, "b", func() error {
		close(bStarted)
		<-aStarted
		return nil
	})
	done := make(chan []NodeResult)
	go func() { done <- run(g, 2) }()
	results := <-done
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("node %s: %v", r.Name, r.Err)
		}
	}
}

func TestReadyQueuePrefersDeclarationIndex(t *testing.T) {
	// Five independent roots, one worker: must run 0..4 in order even
	// though all are ready simultaneously.
	var log orderLog
	g := New()
	for i := 0; i < 5; i++ {
		add(g, fmt.Sprintf("n%d", i), log.fn(fmt.Sprintf("n%d", i)))
	}
	run(g, 1)
	if got := strings.Join(log.got(), ","); got != "n0,n1,n2,n3,n4" {
		t.Fatalf("ready order = %s", got)
	}
}

func TestPanicContainedAndSiblingsRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		g := New()
		add(g, "boom", func() error { panic("injected build panic") })
		add(g, "ok", func() error { ran.Add(1); return nil })
		add(g, "after-boom", func() error { ran.Add(1); return nil }, "boom")
		results := run(g, workers)
		var pe *PanicError
		if !errors.As(results[0].Err, &pe) {
			t.Fatalf("workers=%d: boom error = %v, want PanicError", workers, results[0].Err)
		}
		if pe.Node != "boom" || pe.Value != "injected build panic" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = {%q %v stack:%d}", workers, pe.Node, pe.Value, len(pe.Stack))
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Errorf("workers=%d: PanicError.Error() = %q", workers, pe.Error())
		}
		// Failure does not cancel dependents: degradation, not abortion.
		if got := ran.Load(); got != 2 {
			t.Errorf("workers=%d: %d sibling/dependent nodes ran, want 2", workers, got)
		}
		if results[1].Err != nil || results[2].Err != nil {
			t.Errorf("workers=%d: sibling errors %v %v", workers, results[1].Err, results[2].Err)
		}
	}
}

func TestNodeErrorsReported(t *testing.T) {
	sentinel := errors.New("fetch failed")
	g := New()
	add(g, "a", func() error { return sentinel })
	results := run(g, 2)
	if !errors.Is(results[0].Err, sentinel) {
		t.Fatalf("err = %v, want %v", results[0].Err, sentinel)
	}
}

func TestAddValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	g := New()
	add(g, "a", func() error { return nil })
	mustPanic("duplicate", func() { add(g, "a", func() error { return nil }) })
	mustPanic("unknown dep", func() { add(g, "b", func() error { return nil }, "missing") })
	mustPanic("nil fn", func() { add(g, "c", nil) })
	// Cycles are unrepresentable: a dep must already exist, so a node
	// can never reach itself. Forward references panic as unknown deps.
	mustPanic("self dep", func() { add(g, "d", func() error { return nil }, "d") })
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("Workers must resolve non-positive to >= 1")
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 100
		out := make([]int, n)
		ParallelFor(workers, n, func(_, i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	ParallelFor(4, 0, func(_, _ int) { t.Fatal("fn called with n=0") })
}

// TestParallelForWorkerIndex pins the per-worker scratch contract: w
// stays below the resolved pool size (and below n), and no two
// iterations sharing a w ever overlap, so scratch[w] needs no lock.
func TestParallelForWorkerIndex(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 50}, {3, 200}, {8, 5}} {
		size := min(Workers(tc.workers), tc.n)
		busy := make([]atomic.Bool, size)
		var overlaps, outOfRange atomic.Int64
		ParallelFor(tc.workers, tc.n, func(w, i int) {
			if w < 0 || w >= size {
				outOfRange.Add(1)
				return
			}
			if busy[w].Swap(true) {
				overlaps.Add(1)
			}
			runtime.Gosched()
			busy[w].Store(false)
		})
		if outOfRange.Load() != 0 || overlaps.Load() != 0 {
			t.Fatalf("workers=%d n=%d: %d out-of-range worker indices, %d overlapping uses",
				tc.workers, tc.n, outOfRange.Load(), overlaps.Load())
		}
	}
}

// TestParallelForPanicReachesNodeGuard is the escape-hatch regression
// test: a panic on a ParallelFor pool goroutine must surface on the
// caller's goroutine (deterministically, lowest index first) where a
// Graph node wrapper can contain it.
func TestParallelForPanicReachesNodeGuard(t *testing.T) {
	g := New()
	add(g, "fanout", func() error {
		ParallelFor(4, 10, func(_, i int) {
			if i == 3 || i == 7 {
				panic(fmt.Sprintf("iteration %d", i))
			}
		})
		return nil
	})
	results := run(g, 2)
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("err = %v, want PanicError", results[0].Err)
	}
	inner, ok := pe.Value.(*PanicError)
	if !ok {
		t.Fatalf("node panic value = %#v, want nested *PanicError", pe.Value)
	}
	if inner.Node != "parallel-for[3]" || inner.Value != "iteration 3" {
		t.Errorf("inner = {%q %v}, want lowest panicking index 3", inner.Node, inner.Value)
	}
}

func TestEmptyGraph(t *testing.T) {
	if got := run(New(), 4); len(got) != 0 {
		t.Fatalf("empty graph returned %v", got)
	}
}
