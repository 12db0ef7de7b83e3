package bench

import (
	"strings"
	"testing"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

func eventsTestConfig() topology.Config {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	return cfg
}

// TestInvariantChecker runs the per-event invariant checker over four
// benchmarks under both protocols: every directory transaction, eviction,
// and reconciliation is validated against the private caches as it happens,
// with periodic whole-system sweeps and a final one after the drain.
func TestInvariantChecker(t *testing.T) {
	cfg := eventsTestConfig()
	for _, name := range EventsBenchmarks {
		e, err := pbbs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range core.Protocols("mesi", "warden") {
			t.Run(name+"/"+proto.String(), func(t *testing.T) {
				var chk *core.Checker
				_, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()},
					Instruments{Sink: func(m *machine.Machine) core.Sink {
						chk = core.NewChecker(m.System())
						return chk
					}})
				if err != nil {
					t.Fatal(err)
				}
				if err := chk.Final(); err != nil {
					t.Fatal(err)
				}
				if chk.Events() == 0 {
					t.Fatal("checker observed no events")
				}
			})
		}
	}
}

// TestObservedMatchesUnobserved asserts the tentpole's zero-cost claim from
// the other side: attaching sinks must not change simulated behaviour.
// Cycles and every architectural counter must match a nil-sink run exactly.
func TestObservedMatchesUnobserved(t *testing.T) {
	cfg := eventsTestConfig()
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	opts := hlpl.DefaultOptions()
	for _, proto := range core.Protocols("mesi", "warden") {
		plain, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: opts}, Instruments{})
		if err != nil {
			t.Fatal(err)
		}
		met := core.NewMetrics()
		observed, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: opts},
			Instruments{Sink: func(m *machine.Machine) core.Sink {
				return core.Sinks(met, core.NewChecker(m.System()))
			}})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Cycles != observed.Cycles {
			t.Fatalf("%v: cycles %d (nil sink) != %d (observed)", proto, plain.Cycles, observed.Cycles)
		}
		if plain.Counters != observed.Counters {
			t.Fatalf("%v: counters diverge with a sink attached:\nnil:      %+v\nobserved: %+v",
				proto, plain.Counters, observed.Counters)
		}
		if met.Events == 0 {
			t.Fatal("metrics sink observed no events")
		}
	}
}

// TestMetricsReportDeterministic renders the events report twice and
// requires byte-identical output.
func TestMetricsReportDeterministic(t *testing.T) {
	cfg := eventsTestConfig()
	render := func() string {
		var sb strings.Builder
		if err := EventsReport(&sb, cfg, Small, []string{"primes"}, 5); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("EventsReport output is not deterministic")
	}
	if !strings.Contains(a, "hottest blocks") || !strings.Contains(a, "sharers at transaction time") {
		t.Fatalf("report missing sections:\n%s", a)
	}
}
