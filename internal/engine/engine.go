// Package engine is a deterministic, execution-driven multicore simulation
// engine. Each simulated hardware thread is a goroutine running real Go
// code (the HLPL runtime plus benchmark); whenever that code performs a
// simulated operation (load, store, compute, ...) the goroutine parks and
// the engine decides when — in simulated time — the operation happens.
//
// Determinism comes from two rules:
//
//  1. Exactly one goroutine runs simulator or program state at any instant.
//     Control passes from goroutine to goroutine through explicit
//     handoffs; nothing else runs in between.
//  2. Among parked threads, the engine always executes the operation of the
//     thread with the smallest local clock, breaking ties by thread id.
//
// Under these rules all simulator state is accessed single-threaded — no
// locks anywhere — and every run of the same program is bit-identical,
// which the test suite asserts.
//
// The scheduler is decentralized for host speed. There is no engine
// goroutine in the hot loop; two mechanisms keep the op rate high:
//
//   - Inline lease: when a thread is resumed it learns the smallest
//     (clock, id) among every *other* parked thread. While its own
//     (clock, id) stays below that horizon, its next operation is by
//     definition the one rule 2 would pick, so Thread.Call executes the
//     handler inline on the thread's own goroutine with no handoff and no
//     scheduling structure touched at all. The horizon cannot go stale:
//     other threads' clocks only move while this thread is parked.
//
//   - Direct handoff: when a thread's clock catches up to the horizon it
//     parks itself in the scheduler heap, pops the new global minimum
//     thread, executes that thread's pending operation on the *current*
//     goroutine (handlers are goroutine-agnostic), and wakes it — one
//     channel handoff per op instead of the two an engine-in-the-middle
//     design pays.
//
// Both paths execute handlers in exactly the (clock, id) serialized order,
// and the body code between two of a thread's operations always runs
// immediately after the first operation's handler — identical to a
// centralized engine, so simulated results are unchanged to the bit.
package engine

import (
	"errors"
	"fmt"
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
// issuing thread's on the inline path, the previous thread's on a handoff)
// but is always the only one running.
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
	// handshake. The PDES serial drain reuses the same pair as its global
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

// Call posts op and returns once it has executed (advancing the thread's
// clock by the handler's result). It must only be called from the thread's
// own body. While the thread holds the inline lease — its clock strictly
// precedes every other parked thread's — the handler runs immediately on
// this goroutine; otherwise the thread parks and hands control to the
// thread with the smallest clock.
func (t *Thread) Call(op Op) {
	e := t.eng
	if e.pdes != nil {
		t.callPDES(op)
		return
	}
	if (t.now < t.horizonNow || (t.now == t.horizonNow && t.id < t.horizonID)) &&
		(e.MaxCycles == 0 || t.now <= e.MaxCycles) {
		// This thread is the scheduler's next pick: executing inline is
		// bit-identical to parking and being rescheduled, minus the
		// handoff. (Past MaxCycles, fall through so the scheduler raises
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

// park is Call's slow path: enqueue op, run the scheduling step, transfer
// control, and wait to be rescheduled.
func (t *Thread) park(op Op) {
	e := t.eng
	t.pending = op
	e.heap.push(t)
	if !e.running {
		// Startup: Run drives scheduling; just report that this thread
		// reached its first operation.
		e.startc <- nil
		<-t.res
		return
	}
	u := e.schedule()
	if u == t {
		// Unreachable while the lease is granted eagerly (the lease
		// condition is the pick condition), but harmless: t's op already
		// executed, so just continue.
		return
	}
	if u != nil {
		u.res <- struct{}{}
	}
	// On a scheduler-raised error (u == nil) nobody ever wakes this
	// goroutine; it pins its stack until the process exits, exactly like
	// the parked threads a centralized engine abandons when Run errors.
	<-t.res
}

// Engine runs a set of threads to completion. Create with New.
type Engine struct {
	threads []*Thread
	handler Handler

	heap clockHeap

	running bool       // startup complete; threads schedule each other
	final   uint64     // maximum clock observed (the global clock)
	startc  chan any   // startup: thread parked/exited (nil) or panicked (value)
	donec   chan attic // terminal outcome for Run

	// MaxCycles aborts the run when every runnable thread's clock exceeds
	// it — a guard against deadlocked simulated programs. Zero means no
	// limit.
	MaxCycles uint64

	// probe, if set, receives per-op progress (see Probe). Nil costs one
	// predictable branch per op.
	probe *Probe

	// ran guards Run against double invocation (the channels and heap are
	// single-use; a second Run would silently corrupt them).
	ran bool

	// PDES scheduler state (nil selects the sequential scheduler).
	pdes       *PDESConfig
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

// attic is the terminal state Run recovers from the last scheduling step.
type attic struct {
	final  uint64
	err    error
	panicv any
}

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

// schedule pops the thread with the smallest (clock, id), executes its
// pending operation on the current goroutine, grants it a fresh inline
// lease, and returns it for the caller to wake. On a tripped cycle guard it
// reports the terminal outcome instead and returns nil.
func (e *Engine) schedule() *Thread {
	u := e.heap.pop()
	if e.MaxCycles > 0 && u.now > e.MaxCycles {
		e.donec <- attic{final: u.now, err: ErrMaxCycles}
		return nil
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
	return u
}

// launch starts t's body on its own goroutine. The wrapper turns body
// completion into a scheduling step (or a startup/terminal notification)
// and forwards panics so they surface from Run instead of deadlocking.
func (e *Engine) launch(t *Thread) {
	go func() {
		defer func() {
			if e.pdes != nil && e.running {
				// PDES: the coordinator owns termination; report the exit
				// (or panic) and let it account the final clock.
				e.parkc <- pdesMsg{t: t, exited: true, panicv: recover()}
				return
			}
			if r := recover(); r != nil {
				if !e.running {
					e.startc <- r
				} else {
					e.donec <- attic{panicv: r}
				}
				return
			}
			if t.now > e.final {
				e.final = t.now
			}
			if !e.running {
				e.startc <- nil
				return
			}
			if e.heap.len() == 0 {
				// Last thread out reports the final clock.
				e.donec <- attic{final: e.final}
				return
			}
			if u := e.schedule(); u != nil {
				u.res <- struct{}{}
			}
		}()
		t.body(t)
	}()
}

// Run executes all thread bodies to completion and returns the final global
// clock (the maximum thread-local clock). It can only be called once:
// the scheduling channels and parked-thread structures are single-use, so
// a second call panics rather than silently corrupting them.
func (e *Engine) Run() (uint64, error) {
	if e.ran {
		panic("engine: Run called twice on the same Engine (create a new Engine per run)")
	}
	e.ran = true
	if e.pdes != nil {
		return e.runPDES()
	}
	e.heap.a = make([]*Thread, 0, len(e.threads))
	e.startc = make(chan any)
	e.donec = make(chan attic, 1)

	// Start threads one at a time; a freshly started thread runs until its
	// first op (or exit), so only one goroutine is ever live. The inline
	// lease stays revoked (horizon (0, -1)) until the full parked set is
	// known.
	for _, t := range e.threads {
		if t.body == nil {
			panic(fmt.Sprintf("engine: thread %d has no body", t.id))
		}
		t.horizonNow, t.horizonID = 0, -1
		e.launch(t)
		if v := <-e.startc; v != nil {
			panic(v)
		}
	}
	if e.heap.len() == 0 {
		return e.final, nil // every body exited without a single op
	}

	// Kick off decentralized scheduling: execute the first op here, wake
	// its thread, and wait for the last scheduling step to report back.
	e.running = true
	if u := e.schedule(); u != nil {
		u.res <- struct{}{}
	}
	out := <-e.donec
	if out.panicv != nil {
		panic(out.panicv)
	}
	return out.final, out.err
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
