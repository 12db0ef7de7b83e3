package trace_test

// Native fuzz targets for the trace parser: Parse must reject arbitrary
// bytes with a line-numbered error — never panic, never hang — and
// FormatEvent must be its exact inverse on everything Parse accepts. The
// seed corpus combines a trace recorded from a real execution-driven run
// (every event kind the Recorder emits) with handcrafted edge cases near
// the grammar's limits.

import (
	"strings"
	"sync"
	"testing"

	"warden/internal/bench"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/mem"
	"warden/internal/pbbs"
	"warden/internal/trace"
)

// recordedSeed returns the text trace of a small recorded WARDen run,
// memoized across fuzz iterations (the seed setup runs once).
var recordedSeed = sync.OnceValue(func() string {
	e, err := pbbs.ByName("primes")
	if err != nil {
		panic(err)
	}
	var text strings.Builder
	rec := trace.NewRecorder(&text, nil)
	if _, err := bench.Run(bench.Spec{Config: roundtripConfig(), Protocol: core.WARDen, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()},
		bench.Instruments{Sink: func(*machine.Machine) core.Sink { return rec }}); err != nil {
		panic(err)
	}
	if err := rec.Err(); err != nil {
		panic(err)
	}
	return text.String()
})

func fuzzSeeds() []string {
	return []string{
		recordedSeed(),
		// One of each grammar production.
		"0 R 0x1000 8\n1 W 0x1040 8 0xdeadbeef\n0 A 0x1080 8 0x1\n" +
			"1 X 0x10c0 8 0x0 0x1\n0 C 100\n1 F\n0 B r0 0x1000 0x2000\n1 E r0\n",
		// Wide store (hex payload) and comments/blank lines.
		"# comment\n\n0 W 0x0 16 000102030405060708090a0b0c0d0e0f\n",
		// Null-region end, decimal addresses, lowercase kind.
		"0 b r1 4096 8192\n0 e r1\n0 E -\n",
		// Near-miss malformed lines the parser must reject cleanly.
		"0 R 0x1000\n",
		"0 W 0x1000 9 0x1\n",
		"-1 R 0x0 1\n",
		"0 B - 0x0 0x1\n",
		"0 E never-opened\n",
		"0 W 0x0 16 zz\n",
		"0 R 0x0 99999\n",
		"\x00\xff\xfe\n",
	}
}

// FuzzParse: the parser must error, never panic, on arbitrary bytes, and
// anything it accepts must survive a format→reparse round trip unchanged.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := trace.Parse(strings.NewReader(input))
		if err != nil {
			return // rejected is fine; panics/hangs are the bug
		}
		// Round trip each accepted event individually: FormatEvent must
		// emit a line that reparses to the identical event. (Whole-file
		// round trips would need the original interleaving, which the
		// per-thread queues deliberately do not keep.)
		for tid, evs := range tr.PerThread {
			for i, ev := range evs {
				line, ferr := trace.FormatEvent(ev)
				if ferr != nil {
					t.Fatalf("parse accepted an event FormatEvent rejects: %+v: %v", ev, ferr)
				}
				// An E line needs its B earlier in the file; synthesize one.
				in := line + "\n"
				if ev.Kind == trace.EndRegion && ev.Name != trace.NullRegionName {
					in = "0 B " + ev.Name + " 0x0 0x40\n" + in
				}
				rt, rerr := trace.Parse(strings.NewReader(in))
				if rerr != nil {
					t.Fatalf("reparse of formatted line %q failed: %v", line, rerr)
				}
				got := rt.PerThread[ev.Thread][len(rt.PerThread[ev.Thread])-1]
				if got.Thread != ev.Thread || got.Kind != ev.Kind || got.Addr != ev.Addr ||
					got.Size != ev.Size || got.Value != ev.Value || got.Value2 != ev.Value2 ||
					got.Hi != ev.Hi || got.Name != ev.Name || string(got.Data) != string(ev.Data) {
					t.Fatalf("round trip changed thread %d event %d: %+v -> %+v", tid, i, ev, got)
				}
			}
		}
	})
}

// FuzzFormatEvent: FormatEvent either errors or emits a line Parse accepts
// back as the identical event — for arbitrary Event field combinations,
// not just parser-produced ones.
func FuzzFormatEvent(f *testing.F) {
	f.Add(0, int(trace.Read), uint64(0x1000), 8, uint64(0), uint64(0), "")
	f.Add(1, int(trace.Write), uint64(0x40), 4, uint64(0xbeef), uint64(0), "")
	f.Add(2, int(trace.CAS), uint64(0x80), 8, uint64(1), uint64(2), "")
	f.Add(0, int(trace.BeginRegion), uint64(0x1000), 0, uint64(0), uint64(0), "r0")
	f.Add(0, int(trace.EndRegion), uint64(0), 0, uint64(0), uint64(0), "-")
	f.Add(3, int(trace.Compute), uint64(0), 0, uint64(500), uint64(0), "")
	f.Fuzz(func(t *testing.T, thread, kind int, addr uint64, size int, v1, v2 uint64, name string) {
		ev := trace.Event{
			Thread: thread, Kind: trace.Kind(kind),
			Addr: mem.Addr(addr), Size: size, Value: v1, Value2: v2, Name: name,
			Hi: mem.Addr(addr + uint64(size)),
		}
		if ev.Kind == trace.Write && size > 8 && size <= 4096 {
			ev.Data = make([]byte, size)
		}
		line, err := trace.FormatEvent(ev)
		if err != nil {
			return
		}
		// B lines must come before their E lines for the parser; prefix a
		// matching begin so lone EndRegion events stay parseable.
		input := line + "\n"
		if ev.Kind == trace.EndRegion && ev.Name != trace.NullRegionName {
			pre, perr := trace.FormatEvent(trace.Event{
				Thread: 0, Kind: trace.BeginRegion, Name: ev.Name, Addr: 0, Hi: 64,
			})
			if perr != nil {
				return // the name itself is unformattable; nothing to check
			}
			input = pre + "\n" + input
		}
		if _, err := trace.Parse(strings.NewReader(input)); err != nil {
			t.Fatalf("FormatEvent emitted a line Parse rejects: %q: %v", line, err)
		}
	})
}
