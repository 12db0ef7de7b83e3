package perfdb_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"warden/internal/core"
	"warden/internal/perfdb"
	"warden/internal/runner"
)

// TestBaselineFingerprintsStable proves the protocol-registry refactor
// did not disturb the perf-history pairing key: every record in the
// committed baseline still carries exactly the fingerprint wardendiff
// recomputes today, so old snapshots keep gating new runs.
func TestBaselineFingerprintsStable(t *testing.T) {
	recs, err := perfdb.Read(filepath.Join("..", "..", "perf", "baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("committed baseline is empty")
	}
	want := runner.Fingerprint("wardenbench", "all", "small")
	for i, rec := range recs {
		if rec.Fingerprint != want {
			t.Errorf("baseline record %d (step %s): fingerprint %q, want %q",
				i, rec.Step, rec.Fingerprint, want)
		}
	}
}

// TestBaselineRoundTripsByteStable proves the Record schema still covers
// every key the committed baseline carries: each line decodes and
// re-encodes to exactly its original bytes, so history files are
// untouched by the reader and writer.
func TestBaselineRoundTripsByteStable(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "perf", "baseline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		orig := bytes.TrimSpace(sc.Bytes())
		if len(orig) == 0 {
			continue
		}
		var rec perfdb.Record
		if err := json.Unmarshal(orig, &rec); err != nil {
			t.Fatalf("baseline line %d: %v", line, err)
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("baseline line %d: re-encode: %v", line, err)
		}
		if !bytes.Equal(out, orig) {
			t.Fatalf("baseline line %d not byte-stable:\n old %s\n new %s", line, orig, out)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if line == 0 {
		t.Fatal("committed baseline is empty")
	}
}

// TestWorkerFieldTolerated pins that history lines written while records
// still carried the fleet worker id stay readable: the line decodes through
// perfdb.Read — the wardendiff reader — with its measurements intact, and
// gates clean against a baseline of the same fingerprint.
func TestWorkerFieldTolerated(t *testing.T) {
	const in = `{"schema":1,"run_id":"J1","fingerprint":"fp","step":"primes/MESI","simulated_cycles":42,"simulated_runs":1,"wall_seconds":0.5,"cycles_per_second":84,"worker":"w1"}`
	checkRetiredFieldsTolerated(t, in, "primes/MESI")
}

// TestAttribFieldsTolerated pins the same for lines that still carry the
// attribution summary (attrib_top_kind, attrib_top_share, attrib_residue):
// they read back with measurements intact and gate clean — wardendiff
// compares on the measurements alone.
func TestAttribFieldsTolerated(t *testing.T) {
	const in = `{"schema":1,"run_id":"J2","fingerprint":"fp","step":"fib/WARDen","simulated_cycles":42,"simulated_runs":1,"wall_seconds":0.5,"cycles_per_second":84,"worker":"w1","attrib_top_kind":"load","attrib_top_share":0.71,"attrib_residue":0}`
	checkRetiredFieldsTolerated(t, in, "fib/WARDen")
}

// checkRetiredFieldsTolerated reads the one-line history in through
// perfdb.Read, checks the known fields of the record, and compares it
// against a baseline step with identical simulated cycles.
func checkRetiredFieldsTolerated(t *testing.T, in, step string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(in+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := perfdb.Read(path)
	if err != nil {
		t.Fatalf("history with retired fields rejected: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Fingerprint != "fp" || rec.Step != step || rec.SimulatedCycles != 42 {
		t.Fatalf("known fields corrupted by retired neighbours: %+v", rec)
	}

	base := perfdb.Snapshot{RunID: "base", Fingerprint: "fp",
		Steps: []perfdb.Record{{Step: step, SimulatedCycles: 42, WallSeconds: 0.4}}}
	next := perfdb.Snapshot{RunID: rec.RunID, Fingerprint: "fp", Steps: recs}
	deltas := perfdb.Compare(base, next, perfdb.DefaultThresholds())
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1: %+v", len(deltas), deltas)
	}
	if deltas[0].Regression {
		t.Fatalf("identical cycles flagged as regression: %+v", deltas[0])
	}
}

// TestUnknownFieldsIgnored pins that the history reader is forward-
// compatible: a record written by a future schema with keys this build
// has never heard of still parses, and the known measurements come
// through intact — wardendiff keeps gating old binaries against new
// histories instead of erroring out.
func TestUnknownFieldsIgnored(t *testing.T) {
	const in = `{"schema":1,"run_id":"J3","fingerprint":"fp","step":"fib/MESI","simulated_cycles":7,"simulated_runs":1,"wall_seconds":0.1,"cycles_per_second":70,"some_future_field":"x","another":{"nested":true}}`
	var rec perfdb.Record
	if err := json.Unmarshal([]byte(in), &rec); err != nil {
		t.Fatalf("record with unknown fields rejected: %v", err)
	}
	if rec.Step != "fib/MESI" || rec.SimulatedCycles != 7 {
		t.Fatalf("known fields corrupted by unknown neighbours: %+v", rec)
	}
}

// TestFingerprintsEmbedProtocolNames pins that a protocol contributes
// its registered *name* to fingerprints and formatted records, never the
// registry ordinal: serialized artifacts survive registration-order
// changes (SiSd registering fourth moved no existing protocol's ordinal,
// and even if it had, no stored record would notice).
func TestFingerprintsEmbedProtocolNames(t *testing.T) {
	for _, tc := range []struct {
		p    core.Protocol
		name string
	}{
		{core.MESI, "MESI"},
		{core.WARDen, "WARDen"},
		{core.MOESI, "MOESI"},
	} {
		if got := runner.Fingerprint(tc.p); got != tc.name {
			t.Errorf("Fingerprint(%s) = %q, want the registered name", tc.name, got)
		}
		if got := fmt.Sprint(tc.p); got != tc.name {
			t.Errorf("Sprint = %q, want %q", got, tc.name)
		}
		b, err := tc.p.MarshalText()
		if err != nil || string(b) != tc.name {
			t.Errorf("MarshalText = %q, %v; want %q", b, err, tc.name)
		}
		var q core.Protocol
		if err := q.UnmarshalText(b); err != nil || q != tc.p {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", b, q, err, tc.p)
		}
	}
}
