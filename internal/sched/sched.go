// Package sched is the deterministic build-graph scheduler the pipeline
// runs its substrate builds on. A Graph declares the dependency DAG
// explicitly — every node names the nodes it needs — and RunMemo
// executes ready nodes on a bounded worker pool, restoring clean nodes
// from the previous run's memo. One rule decides reuse: a node restores
// its previous artifact when its input fingerprint is unchanged and no
// dependency changed, and a node that declares an output fingerprint
// and rebuilds to the same output restores it too, so its dependents
// see it unchanged. Determinism is the design constraint the whole
// package bends around:
//
//   - dependencies must already be declared when a node is added, so
//     cycles are unrepresentable and declaration order is a topological
//     order — the canonical serial execution order;
//   - the ready queue is ordered by declaration index, so one worker
//     executes nodes in exactly that serial order on the calling
//     goroutine, and n workers merely overlap independent nodes
//     without changing what any node computes;
//   - every node runs behind a panic guard, so a panicking build on a
//     pool goroutine is contained as a node error instead of killing
//     the process (a recover in the caller cannot reach a goroutine's
//     panic — the guard has to live inside the node wrapper).
//
// Nodes that have failed or panicked do not cancel their dependents:
// the pipeline's contract is graceful degradation, so downstream nodes
// run against whatever state survived and are themselves guarded.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError wraps a panic recovered inside a scheduled node or a
// ParallelFor iteration.
type PanicError struct {
	// Node is the name of the node (or parallel-for iteration) that
	// panicked.
	Node string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("node %q panicked: %v", e.Node, e.Value)
}

// NodeResult records one node's execution: its measured wall time and
// the error (or guarded panic) it produced. Wall times are measurement,
// not simulation — they vary run to run and must never feed back into
// pipeline output. Reused marks a node whose artifact was restored from
// the previous run's memo instead of being rebuilt; like Wall it is
// metadata and must never feed back into output.
type NodeResult struct {
	Name   string
	Wall   time.Duration
	Err    error
	Reused bool
}

// MemoSpec declares how a node participates in memoized rebuilds.
// FP computes the node's input fingerprint: a content hash over
// everything the node's fn reads that its dependencies do not already
// carry. Capture extracts the node's artifact after a successful build;
// Restore re-adopts a previously captured artifact in place of running
// fn. Restored artifacts are shared across runs, never copied — the
// node contract is that artifacts are immutable after capture.
type MemoSpec struct {
	// FP computes the input fingerprint covering everything fn reads.
	// RunMemo calls it once, at the start of the node, inside the
	// node's slot, timing and panic guard, so independent nodes hash
	// their inputs concurrently. It must be safe to call concurrently
	// with the other nodes' FP and fn, and must not return the zero
	// fingerprint: a node whose FP does fails as if it had panicked.
	FP func() Fingerprint
	// Capture extracts the artifact after fn succeeds.
	Capture func() any
	// Restore adopts a previously captured artifact instead of running fn.
	Restore func(value any)
	// Output, when non-nil, fingerprints the artifact fn just built. It
	// must cover everything a dependent reads of the artifact: a build
	// whose output equals the stored artifact's restores that artifact,
	// and its dependents count the node as unchanged.
	Output func() Fingerprint
}

type node struct {
	name string
	fn   func() error
	deps []int
	memo MemoSpec
}

// Graph is a build DAG under construction. Declare nodes with AddMemo,
// then execute with RunMemo. A Graph is not safe for concurrent
// mutation; RunMemo may be called once the graph is fully declared.
type Graph struct {
	nodes  []node
	byName map[string]int
}

// New returns an empty graph.
func New() *Graph { return &Graph{byName: map[string]int{}} }

// AddMemo declares a node computing fn after all deps, with the
// MemoSpec that lets RunMemo skip it when its input fingerprint is
// unchanged from the previous run. Dependencies must already be
// declared: that makes cycles unrepresentable by construction and
// declaration order a topological order. AddMemo panics on a duplicate
// name, a nil fn, an undeclared dependency, a nil FP or a nil
// Capture/Restore — the graph is static program structure, so these
// are programming errors, not runtime conditions.
func (g *Graph) AddMemo(name string, spec MemoSpec, fn func() error, deps ...string) {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("sched: duplicate node %q", name))
	}
	if fn == nil {
		panic(fmt.Sprintf("sched: node %q has nil fn", name))
	}
	if spec.FP == nil {
		panic(fmt.Sprintf("sched: memo node %q has nil fingerprint", name))
	}
	if spec.Capture == nil || spec.Restore == nil {
		panic(fmt.Sprintf("sched: memo node %q needs Capture and Restore", name))
	}
	idxs := make([]int, len(deps))
	for i, d := range deps {
		di, ok := g.byName[d]
		if !ok {
			panic(fmt.Sprintf("sched: node %q depends on undeclared node %q", name, d))
		}
		idxs[i] = di
	}
	g.byName[name] = len(g.nodes)
	g.nodes = append(g.nodes, node{name: name, fn: fn, deps: idxs, memo: spec})
}

// Workers resolves a worker-count config: n <= 0 selects GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunMemo executes the graph on up to Workers(workers) pool goroutines
// against the previous run's memo and returns one NodeResult per node,
// in declaration order, plus the next memo. With one worker, nodes run
// on the calling goroutine in declaration order — the canonical serial
// schedule. With more, whenever several nodes are ready the lowest
// declaration index starts first, so the assignment of work to time is
// the only thing concurrency changes.
//
// Each node decides at its start, after computing its input
// fingerprint (FP, once, in the node's own slot: the node's Wall
// includes it). It restores — runs Restore over the memoized artifact
// instead of fn, and reports Reused — when the memo holds an artifact
// under its name with an equal input fingerprint and no dependency
// changed. Otherwise it runs fn and counts as changed,
// unless it declares Output, fn succeeded and the output equals the
// memoized artifact's: then it restores that artifact after all (the
// output cutoff), so dependents and the results see the previous
// object. A restore never counts as changed, and runs under the same
// slot, ordering, timing and panic guard as a build, so a panicking
// Restore degrades like a failed build without rebuilding dependents.
// A node records its outcome before it completes and exec starts a
// dependent only after that, so the decision needs no lock.
//
// The returned memo holds artifacts only for trustworthy nodes: a node
// whose fn (or Restore) returned an error or panicked is excluded, and
// the exclusion propagates to dependents along every edge — a node
// built downstream of a failed dependency may have consumed degraded
// state, so its artifact must not seed the next generation. A node
// that restored is memoized with the artifact and output it restored,
// under its current input fingerprint. Passing a nil prev rebuilds
// every node: RunMemo(w, nil) is the full build.
func (g *Graph) RunMemo(workers int, prev *Memo) ([]NodeResult, *Memo) {
	type outcome struct {
		changed, reused bool
		fp              Fingerprint // what FP returned
		kept            Artifact    // the memoized artifact a restore adopted
		output          Fingerprint // what Output returned after a build
	}
	outs := make([]outcome, len(g.nodes))
	fns := make([]func() error, len(g.nodes))
	for i := range g.nodes {
		n, o := &g.nodes[i], &outs[i]
		fns[i] = func() error {
			// Set before FP and fn run, so a panic in either counts as a
			// change.
			o.changed = true
			if o.fp = n.memo.FP(); o.fp.IsZero() {
				panic(fmt.Sprintf("sched: memo node %q has zero fingerprint", n.name))
			}
			art, ok := prev.Lookup(n.name)
			depChanged := false
			for _, d := range n.deps {
				depChanged = depChanged || outs[d].changed
			}
			if ok && art.FP == o.fp && !depChanged {
				o.changed = false
				o.reused, o.kept = true, art
				n.memo.Restore(art.Value)
				return nil
			}
			if err := n.fn(); err != nil || n.memo.Output == nil {
				return err
			}
			o.output = n.memo.Output()
			if art.output != o.output {
				return nil
			}
			o.changed, o.kept = false, art
			n.memo.Restore(art.Value)
			return nil
		}
	}
	results := g.exec(workers, fns)

	next := &Memo{nodes: make(map[string]Artifact, len(g.nodes))}
	trusted := make([]bool, len(g.nodes))
	for i := range g.nodes {
		n, o := &g.nodes[i], &outs[i]
		results[i].Reused = o.reused
		if results[i].Err != nil {
			continue
		}
		ok := true
		for _, d := range n.deps {
			ok = ok && trusted[d]
		}
		if !ok {
			continue
		}
		trusted[i] = true
		if o.changed {
			next.nodes[n.name] = Artifact{FP: o.fp, Value: n.memo.Capture(), output: o.output}
		} else {
			next.nodes[n.name] = Artifact{FP: o.fp, Value: o.kept.Value, output: o.kept.output}
		}
	}
	return results, next
}

// exec runs fns[i] in place of each node's declared fn, preserving the
// scheduler's ordering, pooling, timing and panic-guard semantics.
func (g *Graph) exec(workers int, fns []func() error) []NodeResult {
	workers = Workers(workers)
	if workers > len(g.nodes) {
		workers = len(g.nodes)
	}
	results := make([]NodeResult, len(g.nodes))
	if workers <= 1 {
		for i := range g.nodes {
			results[i] = runNode(g.nodes[i].name, fns[i])
		}
		return results
	}

	dependents := make([][]int, len(g.nodes))
	waiting := make([]int, len(g.nodes))
	for i := range g.nodes {
		waiting[i] = len(g.nodes[i].deps)
		for _, d := range g.nodes[i].deps {
			dependents[d] = append(dependents[d], i)
		}
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     []int // ascending declaration indices
		completed int
	)
	insertReady := func(i int) {
		at := len(ready)
		for at > 0 && ready[at-1] > i {
			at--
		}
		ready = append(ready, 0)
		copy(ready[at+1:], ready[at:])
		ready[at] = i
	}
	for i := range g.nodes {
		if waiting[i] == 0 {
			insertReady(i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			for completed < len(g.nodes) {
				if len(ready) == 0 {
					cond.Wait()
					continue
				}
				i := ready[0]
				ready = ready[1:]
				mu.Unlock()
				r := runNode(g.nodes[i].name, fns[i])
				mu.Lock()
				results[i] = r
				completed++
				for _, d := range dependents[i] {
					if waiting[d]--; waiting[d] == 0 {
						insertReady(d)
					}
				}
				cond.Broadcast()
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return results
}

// runNode executes one node's fn behind the timing and panic guard.
func runNode(name string, fn func() error) NodeResult {
	res := NodeResult{Name: name}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Err = &PanicError{Node: name, Value: r, Stack: debug.Stack()}
			}
		}()
		res.Err = fn()
	}()
	res.Wall = time.Since(start)
	return res
}

// ParallelFor runs fn(w, 0) … fn(w, n-1) on up to Workers(workers) pool
// goroutines and returns when all have finished. w is the index of the
// pool goroutine running the iteration, in [0, Workers(workers)): no two
// iterations with the same w ever run concurrently, so a caller can
// hand each worker one reusable scratch (scratch[w]) without locking.
// Which iterations a given w runs is up to the schedule, so scratch
// must not carry state from one iteration into the next result. The
// result is deterministic as long as each iteration writes only
// i-owned state (e.g. slot i of a results slice). A panic in any
// iteration is re-raised on the calling goroutine once all iterations
// have settled (lowest index wins, so even the choice of panic is
// deterministic) — this keeps an enclosing panic guard, such as a Graph
// node wrapper, able to contain it; a bare goroutine panic would kill
// the process.
func ParallelFor(workers, n int, fn func(w, i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	panics := make([]*PanicError, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = &PanicError{
								Node:  fmt.Sprintf("parallel-for[%d]", i),
								Value: r,
								Stack: debug.Stack(),
							}
						}
					}()
					fn(w, i)
				}()
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
