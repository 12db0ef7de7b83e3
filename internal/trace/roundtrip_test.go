package trace_test

// Record→replay round-trip: an execution-driven pbbs run recorded through
// the Recorder sink, then replayed from the textual trace on a fresh
// machine, must reproduce every architectural counter and the cycle count
// exactly, under both protocols. This is the tentpole's closing property:
// coherence timing depends only on the address streams and their
// deterministic interleaving, both of which the trace preserves.

import (
	"strings"
	"testing"

	"warden/internal/bench"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
	"warden/internal/trace"
)

func roundtripConfig() topology.Config {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	return cfg
}

func TestRecordReplayRoundTrip(t *testing.T) {
	cfg := roundtripConfig()
	for _, name := range []string{"primes", "dedup"} {
		e, err := pbbs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range core.Protocols("mesi", "warden") {
			t.Run(name+"/"+proto.String(), func(t *testing.T) {
				var text strings.Builder
				rec := trace.NewRecorder(&text, nil)
				recorded, err := bench.Run(bench.Spec{Config: cfg, Protocol: proto, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()},
					bench.Instruments{Sink: func(*machine.Machine) core.Sink { return rec }})
				if err != nil {
					t.Fatal(err)
				}
				if err := rec.Err(); err != nil {
					t.Fatal(err)
				}

				tr, err := trace.Parse(strings.NewReader(text.String()))
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := trace.Replay(tr, machine.New(cfg, proto))
				if err != nil {
					t.Fatal(err)
				}
				if replayed.Cycles != recorded.Cycles {
					t.Fatalf("cycles: recorded %d, replayed %d", recorded.Cycles, replayed.Cycles)
				}
				if got := *replayed.Machine.Counters(); got != recorded.Counters {
					t.Fatalf("counters diverge after replay:\nrecorded: %+v\nreplayed: %+v", recorded.Counters, got)
				}
			})
		}
	}
}

// TestRecorderJSONL sanity-checks the JSONL side: every line is an object,
// kinds cover both layers, and the count matches the text side's events
// plus the protocol-internal ones.
func TestRecorderJSONL(t *testing.T) {
	cfg := roundtripConfig()
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	var text, jsonl strings.Builder
	rec := trace.NewRecorder(&text, &jsonl)
	if _, err := bench.Run(bench.Spec{Config: cfg, Protocol: core.WARDen, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()},
		bench.Instruments{Sink: func(*machine.Machine) core.Sink { return rec }}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	textLines := 0
	for _, l := range strings.Split(text.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			textLines++
		}
	}
	if len(lines) <= textLines {
		t.Fatalf("JSONL has %d events but the text trace alone has %d instructions", len(lines), textLines)
	}
	var kinds []string
	for _, want := range []string{`"kind":"load"`, `"kind":"transaction"`, `"kind":"region_add"`, `"kind":"drain"`} {
		found := false
		for _, l := range lines {
			if strings.Contains(l, want) {
				found = true
				break
			}
		}
		if !found {
			kinds = append(kinds, want)
		}
	}
	if len(kinds) > 0 {
		t.Fatalf("JSONL missing event kinds: %v", kinds)
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("JSONL line %d is not an object: %q", i+1, l)
		}
	}
}
