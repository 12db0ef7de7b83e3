package bench

import (
	"bytes"
	"testing"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/telemetry"
)

// TestMetricsGoldenCounters is the golden-counter test for the Metrics sink:
// its aggregates must equal the System's architectural counters exactly,
// under both protocols. Message counts, per-kind latency sample counts, and
// the reconciliation distribution are all derivable two ways (event stream
// vs. counter file), and the two views must agree.
func TestMetricsGoldenCounters(t *testing.T) {
	cfg := eventsTestConfig()
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range core.Protocols("mesi", "warden") {
		t.Run(proto.String(), func(t *testing.T) {
			met := core.NewMetrics()
			res, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()},
				Instruments{Sink: func(*machine.Machine) core.Sink { return met }})
			if err != nil {
				t.Fatal(err)
			}
			ctr := res.Counters
			if met.Msgs != ctr.Msgs {
				t.Errorf("message counts diverge:\nmetrics:  %v\ncounters: %v", met.Msgs, ctr.Msgs)
			}
			if met.LoadLat.Count != ctr.Loads {
				t.Errorf("load latency samples %d != %d loads", met.LoadLat.Count, ctr.Loads)
			}
			if met.StoreLat.Count != ctr.Stores {
				t.Errorf("store latency samples %d != %d stores", met.StoreLat.Count, ctr.Stores)
			}
			if met.AtomicLat.Count != ctr.Atomics {
				t.Errorf("atomic latency samples %d != %d atomics", met.AtomicLat.Count, ctr.Atomics)
			}
			if met.ReconWrite.N != ctr.ReconciledBlocks {
				t.Errorf("reconcile samples %d != %d reconciled blocks", met.ReconWrite.N, ctr.ReconciledBlocks)
			}
			if met.TransLat.Count != ctr.DirAccesses {
				t.Errorf("transaction samples %d != %d directory accesses", met.TransLat.Count, ctr.DirAccesses)
			}
			if met.Events == 0 {
				t.Fatal("metrics sink observed no events")
			}
		})
	}
}

// TestTelemetryMatchesUnobserved is the tentpole's zero-perturbation
// guarantee, cycle-exact: a run with the full telemetry capture (windows,
// phases, heatmap, streaming Perfetto trace) attached must produce exactly
// the cycles and counters of a nil-sink run — and the capture's own
// aggregates must reconcile with the architectural counters, proving the
// windowed series loses nothing.
func TestTelemetryMatchesUnobserved(t *testing.T) {
	cfg := eventsTestConfig()
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	opts := hlpl.DefaultOptions()
	for _, proto := range core.Protocols("mesi", "warden") {
		t.Run(proto.String(), func(t *testing.T) {
			plain, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: opts}, Instruments{})
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			cap := telemetry.New(telemetry.Config{Topology: cfg, Trace: &trace})
			observed, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: opts},
				Instruments{Sink: func(*machine.Machine) core.Sink { return cap }})
			if err != nil {
				t.Fatal(err)
			}
			if err := cap.Close(); err != nil {
				t.Fatal(err)
			}
			if plain.Cycles != observed.Cycles {
				t.Fatalf("cycles %d (nil sink) != %d (telemetry attached)", plain.Cycles, observed.Cycles)
			}
			if plain.Counters != observed.Counters {
				t.Fatalf("counters diverge with telemetry attached:\nnil:      %+v\nobserved: %+v",
					plain.Counters, observed.Counters)
			}
			if cap.FinalCycle != observed.Cycles {
				t.Errorf("capture FinalCycle %d != run cycles %d", cap.FinalCycle, observed.Cycles)
			}

			// The windowed series must reconcile exactly with the counters.
			total := cap.Windows.EvictedTotals
			for _, w := range cap.Windows.Live() {
				total.Add(&w.Total)
			}
			ctr := observed.Counters
			for _, chk := range []struct {
				name      string
				got, want uint64
			}{
				{"instructions", total.Instructions, ctr.Instructions},
				{"loads", total.Loads, ctr.Loads},
				{"stores", total.Stores, ctr.Stores},
				{"atomics", total.Atomics, ctr.Atomics},
				{"invalidations", total.Invalidations, ctr.Invalidations},
				{"downgrades", total.Downgrades, ctr.Downgrades},
				{"messages", total.Msgs, ctr.TotalMsgs()},
				{"dram", total.DRAMAccesses, ctr.DRAMAccesses},
				{"ward accesses", total.WardAccesses, ctr.WardAccesses},
				{"reconciles", total.Reconciles, ctr.ReconciledBlocks},
			} {
				if chk.got != chk.want {
					t.Errorf("windowed %s = %d, counters say %d", chk.name, chk.got, chk.want)
				}
			}

			// Phase attribution covers every instruction exactly once.
			var attributed uint64
			for _, ps := range cap.Phases.Table() {
				attributed += ps.Ctrs.Instructions
			}
			if attributed != ctr.Instructions {
				t.Errorf("phase-attributed instructions %d != %d", attributed, ctr.Instructions)
			}

			// And the streamed trace validates.
			if _, err := telemetry.ValidatePerfetto(bytes.NewReader(trace.Bytes())); err != nil {
				t.Errorf("streamed Perfetto trace invalid: %v", err)
			}
		})
	}
}
