package trace_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warden/internal/bench"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/trace"
)

// TestGzipRoundTrip records a run to .trace.gz and .jsonl.gz files through
// trace.Create, reopens them through trace.Open, and replays: the compressed
// round trip must reproduce cycles and counters exactly, and the JSONL side
// must decompress to the same stream a plain writer produces.
func TestGzipRoundTrip(t *testing.T) {
	cfg := roundtripConfig()
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	textPath := filepath.Join(dir, "primes.trace.gz")
	jsonlPath := filepath.Join(dir, "primes.jsonl.gz")

	textW, err := trace.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	jsonlW, err := trace.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	var plainJSONL strings.Builder
	rec := trace.NewRecorder(textW, io.MultiWriter(jsonlW, &plainJSONL))
	recorded, err := bench.Run(bench.Spec{Config: cfg, Protocol: core.WARDen, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()},
		bench.Instruments{Sink: func(*machine.Machine) core.Sink { return rec }})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := textW.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jsonlW.Close(); err != nil {
		t.Fatal(err)
	}

	// Both files must actually be gzip on disk.
	for _, p := range []string{textPath, jsonlPath} {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
			t.Fatalf("%s is not gzip-compressed on disk", p)
		}
	}

	// Replay from the compressed trace.
	in, err := trace.Open(textPath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.Replay(tr, machine.New(cfg, core.WARDen))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Cycles != recorded.Cycles {
		t.Fatalf("cycles: recorded %d, replayed %d", recorded.Cycles, replayed.Cycles)
	}
	if got := *replayed.Machine.Counters(); got != recorded.Counters {
		t.Fatalf("counters diverge after compressed replay:\nrecorded: %+v\nreplayed: %+v", recorded.Counters, got)
	}

	// The compressed JSONL decompresses byte-identical to the plain stream.
	jr, err := trace.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(jr); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != plainJSONL.String() {
		t.Fatal("decompressed JSONL differs from the plain stream")
	}
	// The new event fields ride along.
	if !strings.Contains(buf.String(), `"cycle":`) {
		t.Error("JSONL events carry no cycle stamps")
	}
	if !strings.Contains(buf.String(), `"label":"root"`) {
		t.Error("JSONL events carry no phase labels")
	}
}

// TestReaderSniffing feeds Reader plain, gzip, empty, and 1-byte inputs.
func TestReaderSniffing(t *testing.T) {
	plain := "0 W 0x1000 8 0x7\n"
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte(plain)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{"plain": plain, "gzip": gz.String()} {
		r, err := trace.Reader(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if _, err := out.ReadFrom(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.String() != plain {
			t.Fatalf("%s: got %q, want %q", name, out.String(), plain)
		}
	}
	for name, in := range map[string]string{"empty": "", "one byte": "x"} {
		r, err := trace.Reader(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if _, err := out.ReadFrom(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.String() != in {
			t.Fatalf("%s: got %q, want %q", name, out.String(), in)
		}
	}
}
