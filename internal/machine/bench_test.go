package machine

import (
	"testing"

	"warden/internal/core"
	"warden/internal/topology"
)

func benchConfig() topology.Config {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	return cfg
}

// BenchmarkL1HitPath measures the host cost of one simulated load that
// hits in the L1: operand encoding, the engine's inline fast path (the
// other cores exit immediately, so core 0 never parks), and the cache
// lookup itself. This is the dominant per-instruction cost of every
// benchmark run.
func BenchmarkL1HitPath(b *testing.B) {
	m := New(benchConfig(), core.WARDen)
	addr := m.Mem().Alloc(64, 64)
	bodies := make([]func(*Ctx), m.Config().Threads())
	bodies[0] = func(ctx *Ctx) {
		ctx.Store(addr, 8, 1)
		for i := 0; i < b.N; i++ {
			ctx.Load(addr, 8)
		}
	}
	for i := 1; i < len(bodies); i++ {
		bodies[i] = func(*Ctx) {}
	}
	b.ResetTimer()
	if _, err := m.Run(bodies); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkComputePath is BenchmarkL1HitPath's sibling for pure compute
// operations (no cache interaction at all).
func BenchmarkComputePath(b *testing.B) {
	m := New(benchConfig(), core.WARDen)
	bodies := make([]func(*Ctx), m.Config().Threads())
	bodies[0] = func(ctx *Ctx) {
		for i := 0; i < b.N; i++ {
			ctx.Compute(3)
		}
	}
	for i := 1; i < len(bodies); i++ {
		bodies[i] = func(*Ctx) {}
	}
	b.ResetTimer()
	if _, err := m.Run(bodies); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMachineNew measures building a whole machine: memory system,
// directory, every core's L1/L2 tag arrays and every socket's L3 slice. The
// eight-socket machine is trimmed to the directory's 64-core limit, as the
// socket-scaling experiment builds it.
func BenchmarkMachineNew(b *testing.B) {
	many := topology.ManySocket(8)
	many.CoresPerSocket = 8
	for _, cfg := range []topology.Config{topology.XeonGold6126(2), many} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machineSink = New(cfg, core.WARDen)
			}
		})
	}
}

// machineSink keeps BenchmarkMachineNew's result live.
var machineSink *Machine

// BenchmarkEmitNoopSink is BenchmarkL1HitPath with a no-op sink attached:
// the difference is the host cost of building and emitting one
// instruction-level event. Under PDES each load is a global op, so it also
// pays the flush check ahead of it.
func BenchmarkEmitNoopSink(b *testing.B) {
	for _, mode := range []EngineMode{EngineSequential, EnginePDES} {
		b.Run("engine="+mode.String(), func(b *testing.B) {
			m := New(benchConfig(), core.WARDen)
			m.SetEngineMode(mode)
			m.System().SetSink(noopSink{})
			addr := m.Mem().Alloc(64, 64)
			bodies := make([]func(*Ctx), m.Config().Threads())
			bodies[0] = func(ctx *Ctx) {
				ctx.Store(addr, 8, 1)
				for i := 0; i < b.N; i++ {
					ctx.Load(addr, 8)
				}
			}
			for i := 1; i < len(bodies); i++ {
				bodies[i] = func(*Ctx) {}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := m.Run(bodies); err != nil {
				b.Fatal(err)
			}
		})
	}
}
