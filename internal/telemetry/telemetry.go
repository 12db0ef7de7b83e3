// Package telemetry is the observability layer: a core.Sink that samples the
// structured coherence event stream into cycle-windowed time series, phase-
// attributed counter tables, and an address-space sharing heatmap, plus
// exporters for each (CSV/JSONL dumps, a Chrome trace_event/Perfetto JSON
// timeline, and the self-contained HTML report of cmd/wardenreport).
//
// Telemetry is pure observation. A Capture attaches through core.SetSink like
// every other sink, never mutates the system, and never advances simulated
// time: with no sink attached the access paths pay a nil check only, and with
// a Capture attached every counter and every cycle count is identical to the
// unobserved run (enforced by TestTelemetryMatchesUnobserved in
// internal/bench). The layer therefore has zero perturbation by construction —
// all of its cost is host-side.
//
// Attribution model. Counter deltas (ev.Ctrs) are accounted from
// instruction-level events only: protocol-internal events nest inside
// instructions and their deltas are subsets of the enclosing instruction's,
// so summing both would double-count. Protocol-internal events instead
// contribute occurrence counts (transactions, evictions, reconciles) and the
// directory-side detail the instruction view lacks (home socket, sharer
// sets, region ids).
package telemetry

import (
	"io"

	"warden/internal/core"
	"warden/internal/topology"
)

// Config tunes a Capture. The zero value of every field selects a default;
// Topology is required (window series need the core/socket shape, the heatmap
// needs the block size).
type Config struct {
	// Topology is the simulated machine the observed run uses.
	Topology topology.Config

	// WindowCycles is the width of one sampling window in simulated cycles.
	// Defaults to DefaultWindowCycles.
	WindowCycles uint64

	// RingWindows caps how many windows are held live; older windows are
	// evicted (their totals folded into Windows.EvictedTotals). Defaults to
	// DefaultRingWindows.
	RingWindows int

	// HeatBucketBytes is the address-bucket granularity of the sharing
	// heatmap. Defaults to DefaultHeatBucketBytes.
	HeatBucketBytes uint64

	// Trace, when non-nil, streams a Chrome trace_event/Perfetto JSON
	// timeline of phases and coherence events to the writer as the run
	// executes. The caller must call Capture.Close to finish the JSON.
	Trace io.Writer
}

// Defaults for Config fields left zero.
const (
	DefaultWindowCycles    = 1 << 16 // 65536 cycles per window
	DefaultRingWindows     = 1 << 12 // 4096 live windows (~268M cycles)
	DefaultHeatBucketBytes = 1 << 12 // 4 KiB heatmap buckets
)

// Capture is the telemetry sink. Create with New, attach via core.SetSink
// (or machine.Machine.SetSink / bench.Instruments.Sink), and read the exported
// views after the run. Capture is single-threaded like every sink: the
// simulation engine serializes all cores.
type Capture struct {
	Windows *Windows      // cycle-windowed counter series
	Phases  *PhaseAccount // per-phase spans and counter attribution
	Heat    *Heatmap      // address-space sharing/ping-pong map

	// Events is the total number of events observed.
	Events uint64
	// FinalCycle is the largest Cycle stamp seen (the drain event carries
	// the run's total cycle count, so after a full run this is that total).
	FinalCycle uint64

	perf *Perfetto
}

// New creates a Capture for the given configuration.
func New(cfg Config) *Capture {
	if cfg.WindowCycles == 0 {
		cfg.WindowCycles = DefaultWindowCycles
	}
	if cfg.RingWindows <= 0 {
		cfg.RingWindows = DefaultRingWindows
	}
	if cfg.HeatBucketBytes == 0 {
		cfg.HeatBucketBytes = DefaultHeatBucketBytes
	}
	c := &Capture{
		Windows: newWindows(cfg.Topology, cfg.WindowCycles, cfg.RingWindows),
		Phases:  newPhaseAccount(),
		Heat:    newHeatmap(cfg.Topology, cfg.HeatBucketBytes),
	}
	if cfg.Trace != nil {
		c.perf = NewPerfetto(cfg.Trace, cfg.Topology)
	}
	return c
}

// Event implements core.Sink.
func (c *Capture) Event(ev *core.Event) {
	c.Events++
	if ev.Cycle > c.FinalCycle {
		c.FinalCycle = ev.Cycle
	}
	c.Windows.observe(ev)
	c.Phases.observe(ev)
	c.Heat.observe(ev)
	if c.perf != nil {
		c.perf.Event(ev)
	}
}

// Close finishes the streaming Perfetto trace, if one was configured. It is
// safe (and a no-op) without one, and safe to call more than once.
func (c *Capture) Close() error {
	if c.perf == nil {
		return nil
	}
	return c.perf.Close()
}
