package telemetry

import (
	"fmt"
	"io"
	"sort"

	"warden/internal/core"
)

// Pseudo-phase names for events that fall outside any open marker.
const (
	// OutsidePhase attributes events on a thread with no open phase (e.g.
	// idle steal probing before the first task arrives).
	OutsidePhase = "(outside)"
	// SystemPhase attributes threadless events (the end-of-run drain).
	SystemPhase = "(system)"
)

// PhaseStats accumulates everything attributed to one phase name, summed
// over all instances of the phase on all threads.
type PhaseStats struct {
	Name   string
	Opens  uint64 // how many times the phase began
	Cycles uint64 // sum over closed instances of (end cycle - begin cycle)
	Ctrs   WinCounters
}

// phaseFrame is one open phase instance on a thread's stack.
type phaseFrame struct {
	stats *PhaseStats
	begin uint64
}

// PhaseAccount attributes the event stream to program phases. Phases nest
// LIFO per thread (each Begin/End pair executes on one hardware thread);
// every instruction-level event is charged to the innermost phase open on
// its thread at that moment, so a "sieve.mark" row in the report covers the
// marking tasks themselves plus the scheduler work they triggered — and
// nothing that ran outside the marked scope.
type PhaseAccount struct {
	byName map[string]*PhaseStats
	stacks [][]phaseFrame // indexed by hardware thread, grown on first sight
	system []phaseFrame   // markers on threadless events (Thread -1)

	// Unbalanced counts EvPhaseEnd markers whose name did not match the top
	// of the thread's stack (or arrived with the stack empty). Always zero
	// for markers emitted by internal/hlpl and Task.Phase.
	Unbalanced uint64
}

func newPhaseAccount() *PhaseAccount {
	return &PhaseAccount{byName: make(map[string]*PhaseStats)}
}

// stack returns thread's open-phase stack.
func (pa *PhaseAccount) stack(thread int) *[]phaseFrame {
	if thread < 0 {
		return &pa.system
	}
	if thread >= len(pa.stacks) {
		pa.stacks = append(pa.stacks, make([][]phaseFrame, thread+1-len(pa.stacks))...)
	}
	return &pa.stacks[thread]
}

// get returns (creating if needed) the accumulator for name.
func (pa *PhaseAccount) get(name string) *PhaseStats {
	ps := pa.byName[name]
	if ps == nil {
		ps = &PhaseStats{Name: name}
		pa.byName[name] = ps
	}
	return ps
}

// observe routes one event.
func (pa *PhaseAccount) observe(ev *core.Event) {
	switch ev.Kind {
	case core.EvPhaseBegin:
		ps := pa.get(ev.Label)
		ps.Opens++
		st := pa.stack(ev.Thread)
		*st = append(*st, phaseFrame{stats: ps, begin: ev.Cycle})
	case core.EvPhaseEnd:
		st := pa.stack(ev.Thread)
		if n := len(*st); n > 0 && (*st)[n-1].stats.Name == ev.Label {
			fr := (*st)[n-1]
			*st = (*st)[:n-1]
			fr.stats.Cycles += ev.Cycle - fr.begin
		} else {
			pa.Unbalanced++
		}
	default:
		if !ev.Kind.Instruction() {
			return
		}
		var ps *PhaseStats
		switch {
		case ev.Thread < 0:
			ps = pa.get(SystemPhase)
		case ev.Thread < len(pa.stacks) && len(pa.stacks[ev.Thread]) > 0:
			st := pa.stacks[ev.Thread]
			ps = st[len(st)-1].stats
		default:
			ps = pa.get(OutsidePhase)
		}
		ps.Ctrs.instruction(ev)
	}
}

// Table returns the per-phase rows sorted by attributed span cycles
// descending (name ascending to break ties), a deterministic order.
func (pa *PhaseAccount) Table() []*PhaseStats {
	rows := make([]*PhaseStats, 0, len(pa.byName))
	for _, ps := range pa.byName {
		rows = append(rows, ps)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cycles != rows[j].Cycles {
			return rows[i].Cycles > rows[j].Cycles
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// WriteCSV dumps the phase table.
func (pa *PhaseAccount) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "phase,opens,span_cycles,instr,loads,stores,atomics,inv,downg,msgs,dram,ward,latency_sum"); err != nil {
		return err
	}
	for _, ps := range pa.Table() {
		c := &ps.Ctrs
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			ps.Name, ps.Opens, ps.Cycles, c.Instructions, c.Loads, c.Stores, c.Atomics,
			c.Invalidations, c.Downgrades, c.Msgs, c.DRAMAccesses, c.WardAccesses, c.LatencySum); err != nil {
			return err
		}
	}
	return nil
}
