package machine

import (
	"runtime"
	"testing"

	"warden/internal/core"
	"warden/internal/mem"
	"warden/internal/topology"
)

// orderRec is the part of an event the PDES flush reorders or rebuilds.
type orderRec struct {
	seq     uint64
	kind    core.EventKind
	thread  int
	cycle   uint64
	label   string
	arg1    uint64
	advance uint64
}

// orderSink records the compact stream.
type orderSink struct{ recs []orderRec }

func (s *orderSink) Event(ev *core.Event) {
	s.recs = append(s.recs, orderRec{ev.Seq, ev.Kind, ev.Thread, ev.Cycle, ev.Label, ev.Arg1, ev.Advance})
}

// orderBodies gives every thread of cfg a body that mixes compute, fences,
// loads, stores and phase markers. All threads open with the same compute
// run, so their clocks tie; a marker right after a compute inherits a
// buffered key under PDES; and load, compute, load sequences make a thread
// run during the serial drain empty its buffer at the first load and
// refill it at the compute.
func orderBodies(cfg topology.Config, base mem.Addr) []func(*Ctx) {
	bodies := make([]func(*Ctx), cfg.Threads())
	for i := range bodies {
		bodies[i] = func(ctx *Ctx) {
			id := ctx.ThreadID()
			ctx.PhaseBegin("body")
			for k := 0; k < 8; k++ {
				ctx.Compute(2)
			}
			x := uint32(id*2654435761 + 1)
			for k := 0; k < 120; k++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				a := base + mem.Addr(x%64)*64
				switch x % 7 {
				case 0:
					ctx.Compute(uint64(1 + x%3))
					ctx.PhaseBegin("inner")
					ctx.Compute(2)
					ctx.PhaseEnd("inner")
				case 1:
					ctx.Load(a, 8)
					ctx.Compute(uint64(1 + x%4))
					ctx.Load(a+8, 8)
				case 2:
					ctx.Fence()
					ctx.Compute(2)
				case 3:
					ctx.Store(base+mem.Addr(64*64+8*id), 8, uint64(k))
				case 4:
					ctx.PhaseBegin("load")
					ctx.Load(a, 8)
					ctx.PhaseEnd("load")
				default:
					ctx.Compute(uint64(1 + x%2))
					ctx.Fence()
				}
			}
			ctx.PhaseEnd("body")
		}
	}
	return bodies
}

// TestPDESObservedOrderMatchesSequential: the PDES engine's buffered local
// events, flushed through the cached merge minimum, reach the sink in the
// sequential engine's exact order with the same contents. Phase 1 needs
// more than one host proc, so the test raises GOMAXPROCS for its runs.
func TestPDESObservedOrderMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := topology.XeonGold6126(2)
	record := func(mode EngineMode) ([]orderRec, uint64) {
		m := New(cfg, core.WARDen)
		m.SetEngineMode(mode)
		s := &orderSink{}
		m.System().SetSink(s)
		cycles, err := m.Run(orderBodies(cfg, m.Mem().Alloc(128*64, 64)))
		if err != nil {
			t.Fatal(err)
		}
		return s.recs, cycles
	}
	seq, seqCycles := record(EngineSequential)
	pdes, pdesCycles := record(EnginePDES)
	if seqCycles != pdesCycles {
		t.Fatalf("cycles: seq %d, pdes %d", seqCycles, pdesCycles)
	}
	for i := range seq {
		if i >= len(pdes) || seq[i] != pdes[i] {
			var got any = "end of stream"
			if i < len(pdes) {
				got = pdes[i]
			}
			t.Fatalf("event %d: seq %+v, pdes %+v", i, seq[i], got)
		}
	}
	if len(pdes) != len(seq) {
		t.Fatalf("pdes emitted %d events, seq %d", len(pdes), len(seq))
	}

	// The stream must exercise what the flush has to get right.
	var ties, markers int
	for i := 1; i < len(seq); i++ {
		a, b := seq[i-1], seq[i]
		if a.kind == core.EvCompute && b.kind == core.EvCompute && a.cycle == b.cycle && a.thread != b.thread {
			ties++
		}
		if b.kind == core.EvPhaseBegin && a.kind == core.EvCompute && a.thread == b.thread {
			markers++
		}
	}
	if ties == 0 || markers == 0 {
		t.Fatalf("stream has %d cross-thread compute ties and %d markers right after a compute; want both", ties, markers)
	}
}
