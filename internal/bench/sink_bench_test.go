package bench

import (
	"io"
	"testing"

	"warden/internal/attrib"
	"warden/internal/core"
	"warden/internal/energy"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/telemetry"
	"warden/internal/topology"
	"warden/internal/trace"
)

// eventTape records a run's event stream, copying each event (and its
// borrowed Data) out of the emitter's record.
type eventTape struct{ evs []core.Event }

func (t *eventTape) Event(ev *core.Event) {
	c := *ev
	c.Data = append([]byte(nil), ev.Data...)
	t.evs = append(t.evs, c)
}

// BenchmarkSinkEvent measures the host cost of one event in each sink the
// simulator ships: one op is one Event call, replaying the stream of a
// small WARDen msort run on the two-socket Xeon (instructions, directory
// transactions, evictions, reconciliations and phase markers) into a
// fresh sink per pass. Building the sink is not timed.
func BenchmarkSinkEvent(b *testing.B) {
	cfg := topology.XeonGold6126(2)
	e, err := pbbs.ByName("msort")
	if err != nil {
		b.Fatal(err)
	}
	tape := &eventTape{}
	var sys *core.System
	if _, err := Run(Spec{Config: cfg, Protocol: core.WARDen, Entry: e, Size: 500, Opts: hlpl.DefaultOptions()},
		Instruments{Sink: func(m *machine.Machine) core.Sink { sys = m.System(); return tape }}); err != nil {
		b.Fatal(err)
	}
	sinks := []struct {
		name string
		new  func() core.Sink
	}{
		{"attrib", func() core.Sink { return attrib.New(attrib.Config{}) }},
		{"telemetry", func() core.Sink { return telemetry.New(telemetry.Config{Topology: cfg}) }},
		{"metrics", func() core.Sink { return core.NewMetrics() }},
		{"energy", func() core.Sink { return energy.NewAccumulator(energy.Default(cfg), cfg) }},
		{"checker", func() core.Sink { return core.NewChecker(sys) }},
		{"recorder", func() core.Sink { return trace.NewRecorder(io.Discard, io.Discard) }},
	}
	for _, s := range sinks {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				b.StopTimer()
				sink := s.new()
				b.StartTimer()
				for i := range tape.evs {
					if n == b.N {
						break
					}
					sink.Event(&tape.evs[i])
					n++
				}
			}
		})
	}
}
