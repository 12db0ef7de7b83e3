package main

import (
	"fmt"

	"warden/internal/core"
	"warden/internal/engine"
	"warden/internal/machine"
	"warden/internal/mem"
	"warden/internal/stats"
	"warden/internal/topology"
)

// rec is one recorded instruction-level event: enough to drive both the
// engine replay (thread, advance) and the core replay (kind and operands).
type rec struct {
	addr   mem.Addr // load/store/atomic address; region add: Lo
	a      uint64   // store: value (size<=8) or offset into recorder.data; atomic: Arg1; region add: Hi
	b      uint64   // atomic: Arg2
	adv    uint64   // Event.Advance
	thread int32
	size   int32
	region core.RegionID
	kind   core.EventKind
	rmw    core.RMWKind
	ok     bool // region add: accepted
}

// recorder is the compact recording sink: it keeps every instruction-level
// event of one simulation in stream order.
type recorder struct {
	recs []rec
	data []byte // payloads of stores wider than 8 bytes
}

// Event implements core.Sink.
func (r *recorder) Event(ev *core.Event) {
	if !ev.Kind.Instruction() {
		return
	}
	x := rec{
		addr: ev.Addr, adv: ev.Advance, thread: int32(ev.Thread), size: int32(ev.Size),
		region: ev.Region, kind: ev.Kind, rmw: ev.RMW, a: ev.Arg1, b: ev.Arg2, ok: ev.RegionOK,
	}
	switch ev.Kind {
	case core.EvStore:
		if ev.Size > 8 {
			x.a = uint64(len(r.data))
			r.data = append(r.data, ev.Data...)
		}
	case core.EvRegionAdd:
		x.addr, x.a = ev.Lo, uint64(ev.Hi)
	}
	r.recs = append(r.recs, x)
}

// global reports whether the op behind kind is serialized by the PDES
// scheduler (machine marks only compute and plain fences thread-local).
func global(kind core.EventKind, syncFences bool) bool {
	switch kind {
	case core.EvCompute:
		return false
	case core.EvFence:
		return syncFences
	}
	return true
}

// replayOp carries one recorded op into the replay engine; localReplayOp is
// its thread-local twin for the PDES scheduler.
type replayOp struct {
	idx int32
	adv uint64
}

type localReplayOp struct{ replayOp }

func (*localReplayOp) EngineLocal() {}

// engineReplay is a recording indexed for the engine replay: each
// thread's ops in issue order, and the serialized ops in the live run's
// order. Building it is the benchmark's bookkeeping, so it happens before
// the replay is timed.
type engineReplay struct {
	r          *recorder
	cfg        topology.Config
	pdes       bool
	syncFences bool
	perThread  [][]int32
	order      []int32
	ops        uint64
}

func newEngineReplay(r *recorder, cfg topology.Config, proto core.Protocol, mode machine.EngineMode) *engineReplay {
	e := &engineReplay{
		r: r, cfg: cfg, pdes: mode == machine.EnginePDES,
		syncFences: core.Describe(proto).SyncFences,
		perThread:  make([][]int32, cfg.Threads()),
	}
	for i := range r.recs {
		x := &r.recs[i]
		if x.kind == core.EvDrain {
			continue
		}
		e.perThread[x.thread] = append(e.perThread[x.thread], int32(i))
		if !e.pdes || global(x.kind, e.syncFences) {
			e.order = append(e.order, int32(i))
		}
		e.ops++
	}
	return e
}

// run runs a fresh engine whose handler returns each thread's recorded
// advances, under the live run's engine mode. It checks that the engine
// executes the serialized ops in the live run's order and reaches the live
// run's cycle count.
func (e *engineReplay) run(liveCycles uint64) error {
	r, cfg, pdes, syncFences, order := e.r, e.cfg, e.pdes, e.syncFences, e.order
	cursor, diverged := 0, -1
	handler := func(t *engine.Thread, op engine.Op) uint64 {
		o := op.(*replayOp)
		if diverged < 0 && (cursor >= len(order) || order[cursor] != o.idx) {
			diverged = cursor
		}
		cursor++
		return o.adv
	}
	eng := engine.New(cfg.Threads(), handler)
	if pdes {
		eng.SetPDES(engine.PDESConfig{
			// The machine's window: 8x the minimum cross-thread latency.
			Window: 8 * cfg.MinVisibilityLatency(),
			Local:  func(t *engine.Thread, op engine.Op) uint64 { return op.(*localReplayOp).adv },
		})
	}
	for tid, idxs := range e.perThread {
		idxs := idxs
		eng.SetBody(tid, func(t *engine.Thread) {
			var g replayOp
			var l localReplayOp
			for _, i := range idxs {
				x := &r.recs[i]
				if pdes && !global(x.kind, syncFences) {
					l.idx, l.adv = i, x.adv
					t.Call(&l)
					continue
				}
				g.idx, g.adv = i, x.adv
				t.Call(&g)
			}
		})
	}
	cycles, err := eng.Run()
	switch {
	case err != nil:
		return fmt.Errorf("engine replay: %w", err)
	case diverged >= 0:
		return fmt.Errorf("engine replay: serialized op %d differs from the live order", diverged)
	case cursor != len(order):
		return fmt.Errorf("engine replay: %d serialized ops, live run had %d", cursor, len(order))
	case cycles != liveCycles:
		return fmt.Errorf("engine replay: %d cycles, live run %d", cycles, liveCycles)
	}
	return nil
}

// replayCore drives a fresh memory system through core.ProtocolStep with
// the recorded loads, stores, atomics, sync fences, region ops and final
// drain, and returns its counters and the number of block accesses made.
// sys must be freshly built for the live run's configuration and protocol.
func replayCore(r *recorder, sys core.ProtocolStep, ctr *stats.Counters) (uint64, error) {
	cfg := sys.Config()
	syncFences := core.Describe(sys.Protocol()).SyncFences
	var accesses uint64
	var buf [64]byte
	var wide []byte
	for i := range r.recs {
		x := &r.recs[i]
		coreID := cfg.CoreOf(int(x.thread))
		switch x.kind {
		case core.EvLoad:
			if int(x.size) > len(wide) {
				wide = make([]byte, x.size)
			}
			dst := wide[:x.size]
			forEachBlockSpan(x.addr, int(x.size), cfg.BlockSize, func(a mem.Addr, off, n int) {
				sys.Read(coreID, a, dst[off:off+n])
				accesses++
			})
		case core.EvStore:
			var src []byte
			if x.size <= 8 {
				v := x.a
				for j := 0; j < int(x.size); j++ {
					buf[j] = byte(v)
					v >>= 8
				}
				src = buf[:x.size]
			} else {
				src = r.data[x.a : x.a+uint64(x.size)]
			}
			forEachBlockSpan(x.addr, int(x.size), cfg.BlockSize, func(a mem.Addr, off, n int) {
				sys.Write(coreID, a, src[off:off+n])
				accesses++
			})
		case core.EvAtomic:
			a, b, kind := x.a, x.b, x.rmw
			sys.RMW(coreID, x.addr, int(x.size), func(old uint64) uint64 {
				if kind == core.RMWFetchAdd {
					return old + a
				}
				if old == a {
					return b
				}
				return old
			})
			accesses++
		case core.EvFence:
			if syncFences {
				sys.SyncPoint(coreID)
			}
		case core.EvRegionAdd:
			id, _, ok := sys.AddRegion(coreID, x.addr, mem.Addr(x.a))
			if id != x.region || ok != x.ok {
				return accesses, fmt.Errorf("core replay: event %d: AddRegion gave (%d, %v), live run (%d, %v)", i, id, ok, x.region, x.ok)
			}
		case core.EvRegionRemove:
			sys.RemoveRegion(coreID, x.region)
		case core.EvDrain:
			sys.DrainAll()
		}
	}
	return accesses, nil
}

// forEachBlockSpan splits [addr, addr+n) into block-contained spans, as the
// machine does before each access reaches the memory system.
func forEachBlockSpan(addr mem.Addr, n int, blockSize uint64, fn func(a mem.Addr, off, n int)) {
	off := 0
	for n > 0 {
		blockEnd := addr.Block(blockSize) + mem.Addr(blockSize)
		k := int(blockEnd - addr)
		if k > n {
			k = n
		}
		fn(addr, off, k)
		addr += mem.Addr(k)
		off += k
		n -= k
	}
}

// memorySystemCounters keeps the counters the memory system owns: the
// machine layer's instruction mix, store buffer and cycle attribution are
// zeroed, since the core replay does not model them.
func memorySystemCounters(c stats.Counters) stats.Counters {
	c.Instructions, c.Loads, c.Stores, c.Atomics = 0, 0, 0, 0
	c.StoreBufferStalls, c.FenceDrains = 0, 0
	c.LoadCycles, c.StoreCycles, c.AtomicCycles, c.ComputeCycles, c.RegionCycles = 0, 0, 0, 0, 0
	return c
}
