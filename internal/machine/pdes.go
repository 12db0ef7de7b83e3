// PDES integration for the machine layer: op classification, the
// thread-local fast-path handler, the speculative event buffers published
// in serialized order, and the Host escape hatch for shared host state.
//
// Classification is deliberately conservative. Only compute and fence are
// local: both read and write nothing beyond the issuing thread's clock,
// its private store buffer, and its private counters. Every memory-system
// op — loads included — is global, because this simulator's coherence
// state changes are instantaneous at the issuing clock: another thread's
// store with a smaller timestamp in the same epoch window changes an L1
// "hit" into a miss, so shared state has zero usable lookahead and
// classifying L1 hits as local would break bit-identity. The epoch window
// (topology.MinVisibilityLatency) is therefore purely a batching
// parameter for the paper's compute-heavy disentangled phases, where long
// runs of compute/fence between memory ops are the common case.
package machine

import (
	"fmt"
	"sync/atomic"

	"warden/internal/core"
	"warden/internal/engine"
)

// EngineMode selects the simulation scheduler.
type EngineMode int

const (
	// EngineSequential is the default lease/coroutine scheduler: one
	// goroutine live at a time, the determinism ground truth.
	EngineSequential EngineMode = iota
	// EnginePDES is the conservative epoch-window parallel scheduler;
	// byte-identical results to EngineSequential, potentially using all
	// host cores.
	EnginePDES
)

// String returns the flag spelling of the mode.
func (m EngineMode) String() string {
	switch m {
	case EngineSequential:
		return "seq"
	case EnginePDES:
		return "pdes"
	}
	return fmt.Sprintf("EngineMode(%d)", int(m))
}

// ParseEngineMode parses the -engine flag values "seq" and "pdes".
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "", "seq", "sequential":
		return EngineSequential, nil
	case "pdes", "parallel":
		return EnginePDES, nil
	}
	return EngineSequential, fmt.Errorf("machine: unknown engine mode %q (want seq or pdes)", s)
}

// localEvent is one buffered thread-local event awaiting publication, in
// compact form: it holds only the fields a compute, fence or phase-marker
// event sets, and flushLocal rebuilds the core.Event from it (the thread
// is the buffer's index; Latency equals Advance for every local kind).
// key is its position in the serialized stream: the issuing thread's clock
// at emission (phase markers inherit the key of the event they follow;
// see emitMarker), so the keys in one buffer never decrease.
type localEvent struct {
	key, cycle, arg1, adv uint64
	label                 string
	kind                  core.EventKind
}

// threadLocal is the per-thread speculative state PDES local execution
// writes to: a private counter set merged into the machine's counters
// after the run, and an event buffer flushed in serialized order.
type threadLocal struct {
	ctr    localCounters
	events []localEvent
	head   int
}

// localCounters are the counter fields local ops touch. Kept separate
// from stats.Counters so a new counter on a global path can't silently
// miss the merge.
type localCounters struct {
	instructions  uint64
	computeCycles uint64
	fenceDrains   uint64
}

// pdesState is the machine's PDES state, allocated by SetEngineMode only
// for EnginePDES. locals holds each thread's speculative state. heads[tid]
// is the key of the first event in locals[tid]'s buffer (noHead if it is
// empty), written by its owner only when it refills an empty buffer.
// minTid caches the thread whose head is the merge minimum (-1: all
// empty) and is touched only in serialized context; fresh reports a
// concurrent refill since the last flush, which invalidates minTid. ev is
// the record flushLocal rebuilds buffered events in: sinks must neither
// retain nor modify it, so one record serves the run, and the fields no
// local kind sets stay zero.
type pdesState struct {
	locals []threadLocal
	heads  []uint64
	minTid int
	fresh  atomic.Bool
	ev     core.Event
}

// noHead is the heads entry of an empty buffer. No key equals it: a local
// op runs only while its thread's clock is below the epoch horizon.
const noHead = ^uint64(0)

// pdesWindowScale multiplies the topology's minimum cross-thread
// visibility latency to form the epoch window. Any width gives identical
// results (see the engine package comment) — the window is pure batching
// — so it is sized to amortize the per-epoch coordinator round trip
// (open, phase-1 barrier, drain seed) over many ops. 8x the visibility
// latency keeps single-core overhead within a few percent of the
// sequential engine while bounding run-ahead to well under a microsecond
// of simulated time.
const pdesWindowScale = 8

// SetEngineMode selects the scheduler. Call before Run; the default is
// EngineSequential.
func (m *Machine) SetEngineMode(mode EngineMode) {
	m.emode = mode
	if mode != EnginePDES {
		return
	}
	p := &pdesState{
		locals: make([]threadLocal, m.cfg.Threads()),
		heads:  make([]uint64, m.cfg.Threads()),
		minTid: -1,
	}
	for i := range p.heads {
		p.heads[i] = noHead
	}
	m.pdes = p
	m.eng.SetPDES(engine.PDESConfig{
		Window: pdesWindowScale * m.cfg.MinVisibilityLatency(),
		Local:  m.execLocal,
		Flush:  m.flushLocal,
	})
}

// EngineMode returns the scheduler selected for this machine.
func (m *Machine) EngineMode() EngineMode { return m.emode }

// Local-op markers: compute and fence touch only thread-private state.
func (*computeOp) EngineLocal() {}
func (*fenceOp) EngineLocal()   {}

// hostOp runs a host callback at the thread's exact serialized position.
// It is global (not a LocalOp) and advances no clock, emits no event, and
// touches no counter — simulated results with and without Host calls are
// identical; only host-side bookkeeping happens inside fn.
type hostOp struct{ fn func() }

// execLocal is the PDES local handler: it executes compute and fence ops
// against thread-private state only, buffering the would-be event. It runs
// concurrently with other threads' execLocal calls, so it must not touch
// m.ctr, m.sys, or any shared structure.
func (m *Machine) execLocal(t *engine.Thread, op engine.Op) uint64 {
	tl := &m.pdes.locals[t.ID()]
	var adv, arg1 uint64
	var kind core.EventKind
	switch o := op.(type) {
	case *computeOp:
		tl.ctr.instructions += o.cycles
		adv = (o.cycles + superscalarWidth - 1) / superscalarWidth
		tl.ctr.computeCycles += adv
		kind, arg1 = core.EvCompute, o.cycles
	case *fenceOp:
		tl.ctr.instructions++
		tl.ctr.fenceDrains++
		adv = 1 + m.sbufs[t.ID()].drain(t.Now())
		kind = core.EvFence
	default:
		panic(fmt.Sprintf("machine: op %T marked local but not handled", op))
	}
	if m.observing {
		now := t.Now()
		if len(tl.events) == 0 {
			m.refill(t, now)
		}
		tl.events = append(tl.events, localEvent{key: now, cycle: now, arg1: arg1, adv: adv, kind: kind})
	}
	return adv
}

// refill notes that t's empty buffer is about to receive an event with the
// given key. Only such an append can change a buffer's head, and with it
// the merge minimum, so nothing is updated per event. A thread holding the
// serial-drain lease updates minTid itself; a phase-1 thread, running
// concurrently with others, raises fresh for the next flush to rescan
// instead. The load before the store keeps phase-1 threads from bouncing
// the flag's cache line once it is set.
func (m *Machine) refill(t *engine.Thread, key uint64) {
	p, id := m.pdes, t.ID()
	p.heads[id] = key
	if !t.Serial() {
		if !p.fresh.Load() {
			p.fresh.Store(true)
		}
		return
	}
	if min := p.minTid; min >= 0 && (p.heads[min] < key || p.heads[min] == key && min < id) {
		return
	}
	p.minTid = id
}

// flushLocal publishes buffered local events whose serialized position
// (key, thread) is at or before (maxCycle, maxID), in exactly the order the
// sequential engine would have emitted them: ascending (key, thread), via a
// k-way merge over the per-thread FIFO buffers. It runs only in serialized
// context (the PDES drain or coordinator), so the merge minimum is cached
// in minTid across calls: it is valid because each buffer's keys never
// decrease and appends to a non-empty buffer leave its head alone. It is
// recomputed only after a pop changes the popped buffer's head key or
// after fresh reports a concurrent refill of an empty buffer (a serial
// refill updates it directly; see refill). A flush with nothing to publish
// therefore costs one comparison, not a scan of every thread.
func (m *Machine) flushLocal(maxCycle uint64, maxID int) {
	p := m.pdes
	if p.fresh.Load() {
		p.fresh.Store(false)
		p.minTid = p.scanMin()
	}
	for p.minTid >= 0 {
		tid := p.minTid
		key := p.heads[tid]
		if key > maxCycle || (key == maxCycle && tid > maxID) {
			return
		}
		tl := &p.locals[tid]
		le := &tl.events[tl.head]
		ev := &p.ev
		ev.Kind, ev.Thread, ev.Core = le.kind, tid, m.cfg.CoreOf(tid)
		ev.Cycle, ev.Label, ev.Arg1 = le.cycle, le.label, le.arg1
		ev.Latency, ev.Advance = le.adv, le.adv
		m.sys.Emit(ev)
		tl.head++
		next := noHead
		if tl.head == len(tl.events) {
			tl.events = tl.events[:0]
			tl.head = 0
		} else {
			next = tl.events[tl.head].key
		}
		p.heads[tid] = next
		// A next record that ties the popped key keeps tid the minimum:
		// every other head is larger, or ties it from a larger thread id.
		if next != key {
			p.minTid = p.scanMin()
		}
	}
}

// scanMin returns the thread whose buffered head has the smallest
// (key, thread), or -1 when every buffer is empty.
func (p *pdesState) scanMin() int {
	best, bestKey := -1, noHead
	for tid, k := range p.heads {
		if k < bestKey {
			best, bestKey = tid, k
		}
	}
	return best
}

// emitMarker emits a phase marker of the given kind. Sequentially (and in
// PDES serialized contexts with an empty own buffer) it goes straight to
// the sink. Under PDES with buffered local events on this thread, the
// marker must stay FIFO-after them — the sequential engine emits a marker
// immediately after the thread's preceding op, before other threads'
// smaller-clock ops that execute later — so it inherits the key of the
// last buffered event.
func (c *Ctx) emitMarker(kind core.EventKind, name string) {
	m, now := c.m, c.t.Now()
	if m.pdes != nil {
		tl := &m.pdes.locals[c.t.ID()]
		if n := len(tl.events); n > 0 {
			tl.events = append(tl.events, localEvent{key: tl.events[n-1].key, cycle: now, label: name, kind: kind})
			return
		}
		// Own buffer empty: this thread's preceding ops are all published,
		// and body code only runs here in serialized contexts (startup, or
		// after a global op whose flush cleared the buffer), so a direct
		// emit lands in exactly the sequential position.
	}
	c.ev = core.Event{Kind: kind, Thread: c.t.ID(), Core: c.core, Cycle: now, Label: name}
	m.sys.Emit(&c.ev)
}

// mergeLocals folds the per-thread PDES counters into the machine's
// shared counters. Called once after the engine run, including on error
// returns, so counters match the sequential engine's in every outcome.
func (m *Machine) mergeLocals() {
	if m.pdes == nil {
		return
	}
	for i := range m.pdes.locals {
		c := &m.pdes.locals[i].ctr
		m.ctr.Instructions += c.instructions
		m.ctr.ComputeCycles += c.computeCycles
		m.ctr.FenceDrains += c.fenceDrains
	}
}

// Host executes fn at this thread's exact position in the serialized op
// order, with every other simulated thread quiescent. It advances no
// simulated clock, emits no event, and changes no counter — results are
// bit-identical with or without the call.
//
// Use it for host-side bookkeeping that is shared across threads (pools,
// flags, allocation that assigns simulation-visible addresses): under the
// PDES scheduler, body code between two local ops may run concurrently
// with other threads and out of clock order, so plain access to shared
// host state there is both racy and nondeterministic. Wrapping the access
// in Host serializes it at a deterministic point. Thread-private host
// state needs no wrapping.
func (c *Ctx) Host(fn func()) {
	c.host.fn = fn
	c.t.Call(&c.host)
	c.host.fn = nil
}
