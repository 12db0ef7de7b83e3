//go:build go1.23

// Package engine is a deterministic, execution-driven multicore simulation
// engine. Each simulated hardware thread runs real Go code (the HLPL runtime
// plus benchmark); whenever that code performs a simulated operation (load,
// store, compute, ...) the thread parks and the engine decides when — in
// simulated time — the operation happens.
//
// Determinism comes from two rules:
//
//  1. Exactly one goroutine runs simulator or program state at any instant.
//     Control passes from goroutine to goroutine through explicit
//     switches; nothing else runs in between.
//  2. Among parked threads, the engine always executes the operation of the
//     thread with the smallest local clock, breaking ties by thread id.
//
// Under these rules all simulator state is accessed single-threaded — no
// locks anywhere — and every run of the same program is bit-identical,
// which the test suite asserts.
//
// Two mechanisms keep the host cost per op low:
//
//   - Inline lease: when a thread is resumed it learns the smallest
//     (clock, id) among every *other* parked thread. While its own
//     (clock, id) stays below that horizon, its next operation is by
//     definition the one rule 2 would pick, so Thread.Call executes the
//     handler inline on the thread's own goroutine with no switch and no
//     scheduling structure touched at all. The horizon cannot go stale:
//     other threads' clocks only move while this thread is parked.
//
//   - Coroutine switch: each thread body runs as a coroutine (iter.Pull).
//     When a thread's clock catches up to the horizon it pushes its
//     pending operation onto the scheduler heap and yields to Run's
//     scheduling loop, which pops the global minimum, executes that thread's
//     operation, grants it a fresh lease, and resumes it. A yield or a
//     resume is a direct goroutine switch in the Go runtime: no channel
//     operation and no trip through the host scheduler's run queue.
//
// Both paths execute handlers in exactly the (clock, id) serialized order,
// and the body code between two of a thread's operations always runs
// immediately after the first operation's handler — identical to a
// centralized engine, so simulated results are unchanged to the bit.
//
// The PDES scheduler (pdes.go) keeps real goroutines and channel handoffs,
// because its concurrent phase runs thread bodies in parallel.
package engine

import (
	"errors"
	"fmt"
	"iter"
	"sync/atomic"
)

// Probe is a lock-free progress counter pair an observer can read while
// the engine runs. The engine adds each executed op's clock advance to
// Cycles and bumps Ops by one; both are plain atomic adds, so attaching a
// probe changes nothing about scheduling, clocks, or results — it is
// host-visible only, and one probe may be shared by many engines running
// concurrently (the adds commute).
//
// Cycles is cumulative *thread*-cycles: the sum of every thread's clock
// advances, across all machines feeding the probe. It is a throughput
// counter (cycles simulated), not any single machine's wall clock.
type Probe struct {
	cycles atomic.Uint64
	ops    atomic.Uint64
}

// Sample returns the current cumulative thread-cycles and op count. Safe
// from any goroutine.
func (p *Probe) Sample() (cycles, ops uint64) {
	return p.cycles.Load(), p.ops.Load()
}

// note records one executed op advancing a thread clock by adv.
func (p *Probe) note(adv uint64) {
	p.cycles.Add(adv)
	p.ops.Add(1)
}

// Op is a simulated operation posted by a thread. Concrete op types are
// defined by the machine layer; the engine treats them opaquely.
type Op interface{}

// LocalOp marks an op as thread-local: executing it reads and writes only
// state owned by the issuing thread (its clock, its store buffer, its
// private counters) and never shared simulator state. The PDES scheduler
// (see SetPDES) executes LocalOps concurrently on host threads inside an
// epoch window; everything else is serialized in exact (clock, id) order.
// Ops that do not implement LocalOp are global. The sequential scheduler
// ignores the marker entirely.
type LocalOp interface{ EngineLocal() }

// Handler executes op on behalf of t and returns how many cycles t's local
// clock advances. Handlers run while every other thread is parked and may
// freely mutate simulator state; the goroutine they run on varies (the
// issuing thread's on the inline path, Run's after a park) but is always
// the only one running.
type Handler func(t *Thread, op Op) (advance uint64)

// Thread is one simulated hardware thread.
type Thread struct {
	id      int
	now     uint64
	eng     *Engine
	res     chan struct{}
	body    func(*Thread)
	pending Op // parked operation awaiting execution

	// Inline-execution lease: the smallest (clock, id) among all *other*
	// parked threads, refreshed by the scheduler before each wake. While
	// (now, id) precedes (horizonNow, horizonID) this thread is the one the
	// scheduler would pick, so Call runs the handler inline with no
	// switch. The PDES serial drain reuses the same pair as its global
	// lease (see pdes.go).
	horizonNow uint64
	horizonID  int

	// PDES state (unused by the sequential scheduler). limit is the current
	// epoch horizon H: local ops execute only while now < limit. serial is
	// set while the thread holds the phase-2 drain lease, allowing global
	// ops to run inline under (horizonNow, horizonID).
	limit  uint64
	serial bool
}

// ID returns the hardware thread id (dense, starting at 0).
func (t *Thread) ID() int { return t.id }

// Now returns the thread's local clock in cycles.
func (t *Thread) Now() uint64 { return t.now }

// Serial reports whether t holds the PDES serial-drain lease: no other
// thread runs until it parks, so a PDES Local handler called while Serial
// is true may touch shared state. Always false under the sequential
// scheduler, whose Local handler is never called.
func (t *Thread) Serial() bool { return t.serial }

// Call posts op and returns once it has executed (advancing the thread's
// clock by the handler's result). It must only be called from the thread's
// own body. While the thread holds the inline lease — its clock strictly
// precedes every other parked thread's — the handler runs immediately on
// this goroutine; otherwise the thread parks and Run's scheduling loop runs
// the thread with the smallest clock.
func (t *Thread) Call(op Op) {
	e := t.eng
	if e.pdes != nil {
		t.callPDES(op)
		return
	}
	if (t.now < t.horizonNow || (t.now == t.horizonNow && t.id < t.horizonID)) &&
		(e.MaxCycles == 0 || t.now <= e.MaxCycles) {
		// This thread is the scheduler's next pick: executing inline is
		// bit-identical to parking and being rescheduled, minus the two
		// switches. (Past MaxCycles, fall through so the scheduler raises
		// ErrMaxCycles exactly as a centralized engine would.)
		adv := e.handler(t, op)
		t.now += adv
		if p := e.probe; p != nil {
			p.note(adv)
		}
		return
	}
	t.park(op)
}

// park is Call's slow path: push op onto the scheduler heap and switch to
// Run's scheduling loop, which executes the op in (clock, id) order and then
// resumes this thread. A false yield means Run is abandoning the run
// (ErrMaxCycles or a panic elsewhere): unwind the body so its goroutine
// exits instead of pinning its stack.
func (t *Thread) park(op Op) {
	e := t.eng
	t.pending = op
	e.heap.push(t)
	if !e.co[t.id].yield(struct{}{}) {
		panic(errStopped)
	}
}

// errStopped unwinds a parked body whose coroutine Run stopped. Only the
// coroutine wrapper (see bodySeq) recovers it.
var errStopped = errors.New("engine: run abandoned while thread was parked")

// coroutine is the sequential scheduler's handle on one thread body. It
// lives in Engine.co, indexed by thread id, rather than in Thread so the
// PDES-hot Thread fields keep their layout.
type coroutine struct {
	next  func() (struct{}, bool) // resume the body until it parks or exits
	stop  func()                  // unwind a parked body (its yield reports false)
	yield func(struct{}) bool     // the body's half of the switch, used by park
}

// Engine runs a set of threads to completion. Create with New.
type Engine struct {
	threads []*Thread
	handler Handler

	heap  clockHeap
	co    []coroutine // sequential scheduler: one coroutine per thread
	final uint64      // maximum clock observed (the global clock)

	// MaxCycles aborts the run when every runnable thread's clock exceeds
	// it — a guard against deadlocked simulated programs. Zero means no
	// limit.
	MaxCycles uint64

	// probe, if set, receives per-op progress (see Probe). Nil costs one
	// predictable branch per op.
	probe *Probe

	// ran guards Run against double invocation (the coroutines, channels
	// and heap are single-use; a second Run would silently corrupt them).
	ran bool

	// PDES scheduler state (nil selects the sequential scheduler).
	pdes       *PDESConfig
	running    bool         // startup complete; the epoch loop is scheduling
	aborted    bool         // the run failed; parked bodies unwind on wake (abandonPDES)
	startc     chan any     // startup: thread parked/exited (nil) or panicked (value)
	pdesParked []*Thread    // threads parked during startup / between epochs
	parkc      chan pdesMsg // running threads report park/exit/panic here

	// Serial-drain state for the current epoch, owned by whichever
	// goroutine holds the drain baton: the one live serial thread, or the
	// coordinator when none is live (ownership passes through the parkc/
	// res handoffs, which also order the accesses). See wakeNextDrain.
	drainHeap clockHeap
	drainH    uint64
	procs     int // host procs available to this run (GOMAXPROCS at Run)
}

// SetProbe attaches a live progress probe. Call before Run; the probe may
// be shared across engines.
func (e *Engine) SetProbe(p *Probe) { e.probe = p }

// ErrMaxCycles is returned by Run when the cycle guard trips.
var ErrMaxCycles = errors.New("engine: exceeded MaxCycles (simulated program deadlocked or runaway)")

// New creates an engine with n threads whose operations are executed by
// handler.
func New(n int, handler Handler) *Engine {
	if n <= 0 {
		panic(fmt.Sprintf("engine: need at least one thread, got %d", n))
	}
	e := &Engine{handler: handler}
	for i := 0; i < n; i++ {
		e.threads = append(e.threads, &Thread{id: i, eng: e, res: make(chan struct{})})
	}
	return e
}

// Threads returns the number of hardware threads.
func (e *Engine) Threads() int { return len(e.threads) }

// SetBody sets the code thread id runs. Every thread must have a body
// before Run.
func (e *Engine) SetBody(id int, body func(*Thread)) {
	e.threads[id].body = body
}

// bodySeq wraps t's body as the coroutine Run pulls. The deferred recover
// swallows only errStopped, so a body's own panic still surfaces from the
// next() call that resumed it, and from there from Run.
func (e *Engine) bodySeq(t *Thread) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		e.co[t.id].yield = yield
		defer func() {
			if r := recover(); r != nil && r != errStopped {
				panic(r)
			}
		}()
		t.body(t)
	}
}

// resume runs t's body until its next park or exit, folding an exited
// body's clock into the global clock.
func (e *Engine) resume(t *Thread) {
	if _, parked := e.co[t.id].next(); !parked && t.now > e.final {
		e.final = t.now
	}
}

// Run executes all thread bodies to completion and returns the final global
// clock (the maximum thread-local clock). It can only be called once:
// the coroutines and parked-thread structures are single-use, so a second
// call panics rather than silently corrupting them.
//
// Run's goroutine is the scheduling loop: it pops the parked thread with the
// smallest (clock, id), executes its pending operation, grants it a fresh
// inline lease, and resumes it until it parks again. On every exit path —
// completion, ErrMaxCycles, or a panic from a body or handler — it stops
// every coroutine, so no thread goroutine outlives the run.
func (e *Engine) Run() (uint64, error) {
	if e.ran {
		panic("engine: Run called twice on the same Engine (create a new Engine per run)")
	}
	e.ran = true
	if e.pdes != nil {
		return e.runPDES()
	}
	for _, t := range e.threads {
		if t.body == nil {
			panic(fmt.Sprintf("engine: thread %d has no body", t.id))
		}
	}
	e.heap.a = make([]*Thread, 0, len(e.threads))
	e.co = make([]coroutine, len(e.threads))
	defer func() {
		for _, c := range e.co {
			if c.stop != nil {
				c.stop()
			}
		}
	}()

	// Start threads one at a time; each runs until its first op (or exit).
	// The inline lease stays revoked (horizon (0, -1)) until the full
	// parked set is known.
	for _, t := range e.threads {
		t.horizonNow, t.horizonID = 0, -1
		c := &e.co[t.id]
		c.next, c.stop = iter.Pull(e.bodySeq(t))
		e.resume(t)
	}

	for e.heap.len() > 0 {
		u := e.heap.pop()
		if e.MaxCycles > 0 && u.now > e.MaxCycles {
			return u.now, ErrMaxCycles
		}
		op := u.pending
		u.pending = nil
		adv := e.handler(u, op)
		u.now += adv
		if p := e.probe; p != nil {
			p.note(adv)
		}
		if u.now > e.final {
			e.final = u.now
		}
		if e.heap.len() > 0 {
			r := e.heap.a[0]
			u.horizonNow, u.horizonID = r.now, r.id
		} else {
			u.horizonNow, u.horizonID = ^uint64(0), int(^uint(0)>>1)
		}
		e.resume(u)
	}
	return e.final, nil
}

// clockHeap is a binary min-heap of parked threads ordered by (now, id) —
// the scheduler's pick order. Threads are only pushed when they park and
// popped when resumed, so no decrease-key is needed.
type clockHeap struct {
	a []*Thread
}

func clockLess(x, y *Thread) bool {
	return x.now < y.now || (x.now == y.now && x.id < y.id)
}

func (h *clockHeap) len() int { return len(h.a) }

func (h *clockHeap) push(t *Thread) {
	h.a = append(h.a, t)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !clockLess(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *clockHeap) pop() *Thread {
	root := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.a) {
			break
		}
		c := l
		if r < len(h.a) && clockLess(h.a[r], h.a[l]) {
			c = r
		}
		if !clockLess(h.a[c], h.a[i]) {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return root
}
