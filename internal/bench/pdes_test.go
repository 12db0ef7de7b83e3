package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"
	"warden/internal/trace"
)

// observedRun executes one benchmark under the given engine mode with a
// trace recorder attached, returning the measurement and the full textual
// + JSONL trace bytes.
func observedRun(t *testing.T, emode machine.EngineMode, proto core.Protocol, e pbbs.Entry) (Result, []byte, []byte) {
	t.Helper()
	var text, jsonl bytes.Buffer
	res, err := Run(Spec{Config: topology.XeonGold6126(2), Protocol: proto, Entry: e, Size: Small.pick(e), Opts: hlpl.DefaultOptions()},
		Instruments{Engine: emode, Sink: func(*machine.Machine) core.Sink { return trace.NewRecorder(&text, &jsonl) }})
	if err != nil {
		t.Fatalf("%s/%v/%v: %v", e.Name, proto, emode, err)
	}
	return res, text.Bytes(), jsonl.Bytes()
}

// firstDiffLine locates the first line where a and b diverge, for readable
// failure output.
func firstDiffLine(a, b []byte) (int, string, string) {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1, string(la[i]), string(lb[i])
		}
	}
	return n + 1, fmt.Sprintf("<%d lines>", len(la)), fmt.Sprintf("<%d lines>", len(lb))
}

// TestPDESDifferentialSuite asserts the tentpole guarantee: the PDES
// engine produces byte-identical reports, traces, and counters to the
// sequential engine on every PBBS benchmark under both protocols. The
// trace comparison is the strong form — it covers every event (loads,
// stores, coherence transactions, phase markers) with sequence numbers,
// so any reordering or divergence anywhere in the serialized history
// fails the test. Run under -race with GOMAXPROCS>1 (the CI job sets 4),
// this also proves the PDES engine's concurrency is data-race-free.
func TestPDESDifferentialSuite(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		// Real host parallelism (or at least preemptive interleaving) makes
		// the -race run meaningful even on single-core hosts.
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, e := range pbbs.Suite {
		for _, proto := range core.All() {
			e, proto := e, proto
			t.Run(fmt.Sprintf("%s/%v", e.Name, proto), func(t *testing.T) {
				seqRes, seqText, seqJSONL := observedRun(t, machine.EngineSequential, proto, e)
				pdesRes, pdesText, pdesJSONL := observedRun(t, machine.EnginePDES, proto, e)
				if seqRes != pdesRes {
					t.Errorf("Result diverged:\nseq:  %+v\npdes: %+v", seqRes, pdesRes)
				}
				if !bytes.Equal(seqText, pdesText) {
					line, a, b := firstDiffLine(seqText, pdesText)
					t.Errorf("text trace diverged at line %d:\nseq:  %s\npdes: %s", line, a, b)
				}
				if !bytes.Equal(seqJSONL, pdesJSONL) {
					line, a, b := firstDiffLine(seqJSONL, pdesJSONL)
					t.Errorf("jsonl trace diverged at line %d:\nseq:  %s\npdes: %s", line, a, b)
				}
			})
		}
	}
}

// TestPDESRunnerMatchesSequential covers the harness path end to end: two
// Runners differing only in Engine must render identical comparisons.
func TestPDESRunnerMatchesSequential(t *testing.T) {
	names := []string{"fib", "primes", "dedup"}
	cfg := topology.XeonGold6126(2)
	seq := NewRunner(Small)
	pdes := NewRunner(Small)
	pdes.Engine = machine.EnginePDES
	a, err := seq.CompareAll(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pdes.CompareAll(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: comparison diverged:\nseq:  %+v\npdes: %+v", names[i], a[i], b[i])
		}
	}
}
