package energy_test

import (
	"math"
	"testing"

	"warden/internal/bench"
	"warden/internal/core"
	"warden/internal/energy"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

// TestAccumulatorMatchesCounters runs a benchmark with the event-driven
// energy accumulator attached and checks that the integrated breakdown
// agrees with the counter-derived one: the instruction-level counter deltas
// (plus the EvDrain event) partition the whole run, so the two integrals
// must agree to floating-point accumulation error.
func TestAccumulatorMatchesCounters(t *testing.T) {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	model := energy.Default(cfg)
	for _, proto := range core.Protocols("mesi", "warden") {
		var acc *energy.Accumulator
		res, err := bench.Run(bench.Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()},
			bench.Instruments{Sink: func(*machine.Machine) core.Sink {
				acc = energy.NewAccumulator(model, cfg)
				return acc
			}})
		if err != nil {
			t.Fatal(err)
		}
		want := model.Evaluate(&res.Counters, res.Cycles, cfg)
		got := acc.Breakdown(res.Cycles)
		check := func(name string, g, w float64) {
			if w == 0 && g == 0 {
				return
			}
			if rel := math.Abs(g-w) / math.Max(math.Abs(w), 1e-30); rel > 1e-9 {
				t.Errorf("%v %s: accumulator %.6g != counters %.6g (rel %.2g)", proto, name, g, w, rel)
			}
		}
		check("core", got.Core, want.Core)
		check("caches", got.Caches, want.Caches)
		check("interconnect", got.Interconnect, want.Interconnect)
		check("dram", got.DRAM, want.DRAM)
		check("total", got.Total, want.Total)
		if len(acc.ByKind) == 0 {
			t.Fatalf("%v: no per-kind attribution", proto)
		}
		// The per-kind attribution must partition the dynamic energy: the
		// breakdown minus the static (power × time) terms.
		var byKind float64
		for _, v := range acc.ByKind {
			byKind += v
		}
		seconds := cfg.CyclesToSeconds(res.Cycles)
		static := model.CorePower*seconds*float64(cfg.Cores()) +
			model.UncorePowerSocket*seconds*float64(cfg.Sockets)
		check("by-kind sum", byKind, want.Total-static)
	}
}
