package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"warden/internal/core"
	"warden/internal/engine"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

// TestInstrumentsNonPerturbing is the non-perturbation proof for the one
// simulation entry point: every combination of Instruments — engine
// {seq, pdes} × sink {none, core.Metrics} × probe {none, set} — must give
// a Result whose JSON is byte-identical to the bare sequential run.
func TestInstrumentsNonPerturbing(t *testing.T) {
	cfg := topology.XeonGold6126(2)
	for _, name := range []string{"fib", "msort"} {
		entry, err := pbbs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range core.Protocols("warden", "sisd") {
			t.Run(name+"/"+proto.String(), func(t *testing.T) {
				t.Parallel()
				spec := Spec{Config: cfg, Protocol: proto, Entry: entry, Size: entry.Small, Opts: hlpl.DefaultOptions()}
				bare, err := Run(spec, Instruments{})
				if err != nil {
					t.Fatalf("bare: %v", err)
				}
				want, _ := json.Marshal(bare)
				for _, emode := range []machine.EngineMode{machine.EngineSequential, machine.EnginePDES} {
					for _, withSink := range []bool{false, true} {
						for _, withProbe := range []bool{false, true} {
							cell := fmt.Sprintf("%v/sink=%v/probe=%v", emode, withSink, withProbe)
							in := Instruments{Engine: emode}
							var met *core.Metrics
							if withSink {
								met = core.NewMetrics()
								in.Sink = func(*machine.Machine) core.Sink { return met }
							}
							if withProbe {
								in.Probe = &engine.Probe{}
							}
							res, err := Run(spec, in)
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							if got, _ := json.Marshal(res); !bytes.Equal(got, want) {
								t.Errorf("%s: result differs from the bare sequential run\nbare: %s\ngot:  %s", cell, want, got)
							}
							if met != nil && met.Events == 0 {
								t.Errorf("%s: sink observed no events", cell)
							}
							if in.Probe != nil {
								if _, ops := in.Probe.Sample(); ops == 0 {
									t.Errorf("%s: probe counted no ops", cell)
								}
							}
						}
					}
				}
			})
		}
	}
}
