package bench

// EventsReport renders the Metrics-sink view (latency histograms, sharer
// distributions, per-block contention) for a fixed benchmark subset under
// both protocols — wardenbench -events.

import (
	"fmt"
	"io"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

// EventsBenchmarks is the subset profiled by wardenbench -events: strong
// WARD beneficiaries (primes, dedup), a sort with heavy data movement
// (msort), and a divide-and-conquer geometry kernel (quickhull) — a spread
// matching the paper's deep-dive set in §7.2.
var EventsBenchmarks = []string{"primes", "dedup", "msort", "quickhull"}

// EventsReport profiles each named benchmark (EventsBenchmarks when names
// is nil) under MESI and WARDen with a Metrics sink attached and renders
// the per-run distribution views. Runs are sequential — event aggregation
// is about insight, not throughput — and fully deterministic.
func EventsReport(w io.Writer, cfg topology.Config, sizes SizeClass, names []string, topN int) error {
	if names == nil {
		names = EventsBenchmarks
	}
	opts := hlpl.DefaultOptions()
	for _, name := range names {
		e, err := pbbs.ByName(name)
		if err != nil {
			return err
		}
		for _, proto := range core.Protocols("mesi", "warden") {
			met := core.NewMetrics()
			res, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: sizes.pick(e), Opts: opts},
				Instruments{Sink: func(*machine.Machine) core.Sink { return met }})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "=== %s · %v · %s (size %d) ===\n", e.Name, proto, cfg.Name, res.Size)
			fmt.Fprintf(w, "cycles: %d  IPC: %.3f  inv: %d  downgrades: %d\n",
				res.Cycles, res.IPC(), res.Counters.Invalidations, res.Counters.Downgrades)
			met.WriteReport(w, topN)
			fmt.Fprintln(w)
		}
	}
	return nil
}
