package energy

// Accumulator is a core.Sink that integrates dynamic energy directly from
// the event stream instead of from end-of-run counters. Instruction-level
// events carry counter deltas covering everything the instruction caused
// (including nested transactions, evictions, and reconciliations), and the
// final EvDrain event covers the end-of-run flushes, so summing the
// instruction-level deltas reproduces the counter-derived dynamic energy
// exactly. The gain over Model.Evaluate is attribution: energy can be
// split per event kind (and could be split per thread or region), which
// the counter totals cannot do.

import (
	"warden/internal/core"
	"warden/internal/stats"
	"warden/internal/topology"
)

// Accumulator integrates dynamic energy event by event. Static energy
// needs the final cycle count, so it is added by Breakdown at the end.
type Accumulator struct {
	model Model
	cfg   topology.Config

	core, caches, interconnect, dram float64

	// ByKind attributes dynamic energy to the instruction-level event kind
	// that caused it (protocol-internal events are nested inside and would
	// double count; they are skipped).
	ByKind map[core.EventKind]float64
}

// NewAccumulator returns an Accumulator for the given model and topology.
func NewAccumulator(model Model, cfg topology.Config) *Accumulator {
	return &Accumulator{model: model, cfg: cfg, ByKind: make(map[core.EventKind]float64)}
}

// Event implements core.Sink.
func (a *Accumulator) Event(ev *core.Event) {
	if !ev.Kind.Instruction() {
		return // nested inside an instruction event's deltas
	}
	// Instruction count: a compute event retires Arg1 ALU instructions;
	// every other instruction-level event retires one; the drain retires
	// none.
	var instrs uint64
	switch ev.Kind {
	case core.EvCompute:
		instrs = ev.Arg1
	case core.EvDrain:
		instrs = 0
	default:
		instrs = 1
	}
	coreE := float64(instrs) * a.model.PerInstruction
	cachesE := a.dynCaches(&ev.Ctrs)
	icE := float64(ev.Ctrs.NoCFlitHops)*a.model.NoCFlitHop +
		float64(ev.Ctrs.IntersocketFlits)*a.model.IntersocketFlit
	dramE := float64(ev.Ctrs.DRAMAccesses) * a.model.DRAMAccess

	a.core += coreE
	a.caches += cachesE
	a.interconnect += icE
	a.dram += dramE
	a.ByKind[ev.Kind] += coreE + cachesE + icE + dramE
}

func (a *Accumulator) dynCaches(s *stats.Snapshot) float64 {
	return float64(s.L1Accesses)*a.model.L1Access +
		float64(s.L2Accesses)*a.model.L2Access +
		float64(s.L3Accesses)*a.model.L3Access +
		float64(s.DirAccesses)*(a.model.DirAccess+a.model.RegionCAMAccess)
}

// Breakdown finalizes the run: dynamic energy from the integrated events
// plus static energy over the run's cycle count, in the same shape as
// Model.Evaluate.
func (a *Accumulator) Breakdown(cycles uint64) Breakdown {
	seconds := a.cfg.CyclesToSeconds(cycles)
	var b Breakdown
	b.Core = a.core + a.model.CorePower*seconds*float64(a.cfg.Cores())
	b.Caches = a.caches
	b.Interconnect = a.interconnect
	b.DRAM = a.dram
	b.Uncore = a.model.UncorePowerSocket * seconds * float64(a.cfg.Sockets)
	b.Total = b.Core + b.Caches + b.Interconnect + b.DRAM + b.Uncore
	return b
}
