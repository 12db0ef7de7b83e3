package attrib

import (
	"bytes"
	"strings"
	"testing"

	"warden/internal/cache"
	"warden/internal/core"
	"warden/internal/mem"
	"warden/internal/stats"
)

// instr feeds one instruction-level event through the ledger.
func instr(l *Ledger, thread int, kind core.EventKind, cycle, adv uint64, block uint64) {
	l.Event(&core.Event{
		Kind: kind, Thread: thread, Core: thread, Cycle: cycle,
		Advance: adv, Block: mem.Addr(block), Addr: mem.Addr(block),
	})
}

func marker(l *Ledger, thread int, kind core.EventKind, label string) {
	l.Event(&core.Event{Kind: kind, Thread: thread, Label: label})
}

func TestLedgerReconcilesExactly(t *testing.T) {
	l := New(Config{BucketBytes: 64})
	// Thread 0: 10 + 5 cycles; thread 1: 7 cycles. Run cycles = 15.
	instr(l, 0, core.EvLoad, 0, 10, 0x1000)
	instr(l, 0, core.EvCompute, 10, 5, 0)
	instr(l, 1, core.EvStore, 0, 7, 0x1040)
	if err := l.Reconcile(15); err != nil {
		t.Fatalf("Reconcile(15): %v", err)
	}
	if r := l.Residue(); r != 0 {
		t.Fatalf("Residue after exact reconcile = %d, want 0", r)
	}
	if th, cy, ok := l.CriticalThread(); !ok || th != 0 || cy != 15 {
		t.Fatalf("CriticalThread = %d,%d,%v; want 0,15,true", th, cy, ok)
	}
	if err := l.Reconcile(16); err == nil {
		t.Fatal("Reconcile(16) accepted a 1-cycle residue")
	}
	if r := l.Residue(); r != 1 {
		t.Fatalf("Residue after Reconcile(16) = %d, want 1", r)
	}
	if _, ok := l.Reconciled(); ok {
		t.Fatal("Reconciled still true after a failed Reconcile")
	}
	if got := l.ThreadCycles(1); got != 7 {
		t.Fatalf("ThreadCycles(1) = %d, want 7", got)
	}
}

func TestLedgerDetectsPerThreadResidue(t *testing.T) {
	l := New(Config{})
	// Advance says 3 but the next event's Cycle implies the clock moved 5:
	// sum(3) != clock(5) must be caught even when the run total matches.
	instr(l, 0, core.EvLoad, 0, 3, 0)
	l.Event(&core.Event{Kind: core.EvLoad, Thread: 0, Cycle: 5, Advance: 0})
	if err := l.Reconcile(5); err == nil || !strings.Contains(err.Error(), "residue") {
		t.Fatalf("per-thread residue not detected: %v", err)
	}
	if r := l.Residue(); r != 2 {
		t.Fatalf("per-thread Residue = %d, want 2", r)
	}
}

func TestLedgerPhaseAndBucketAxes(t *testing.T) {
	l := New(Config{BucketBytes: 4096})
	marker(l, 0, core.EvPhaseBegin, "build")
	instr(l, 0, core.EvLoad, 0, 4, 0x1010)
	marker(l, 0, core.EvPhaseEnd, "build")
	instr(l, 0, core.EvLoad, 4, 4, 0x1020) // outside any phase, same page
	l.Event(&core.Event{Kind: core.EvDrain, Thread: -1, Cycle: 8})
	rows := l.Rows()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	byPhase := map[string]uint64{}
	for _, r := range rows {
		byPhase[r.Phase] += r.Cycles
		if r.Kind == core.EvLoad && r.Bucket != 0x1000 {
			t.Fatalf("load bucket = %#x, want 0x1000", r.Bucket)
		}
	}
	if byPhase["build"] != 4 || byPhase[OutsidePhase] != 4 || byPhase[SystemPhase] != 0 {
		t.Fatalf("phase attribution wrong: %v", byPhase)
	}
	if l.Unbalanced != 0 {
		t.Fatalf("Unbalanced = %d", l.Unbalanced)
	}
	marker(l, 0, core.EvPhaseEnd, "never-opened")
	if l.Unbalanced != 1 {
		t.Fatalf("unmatched EvPhaseEnd not counted")
	}
}

func txn(l *Ledger, block uint64, from, to cache.State, inv uint64) {
	l.Event(&core.Event{
		Kind: core.EvTransaction, Thread: 0, Core: 0,
		Block: mem.Addr(block), Mode: core.ModeWrite,
		DirBefore: from, DirAfter: to,
		Ctrs: stats.Snapshot{Invalidations: inv},
	})
}

func TestFlightRecorderBoundsAndChurn(t *testing.T) {
	l := New(Config{FlightDepth: 4, MaxBlocks: 2})
	for i := 0; i < 10; i++ {
		txn(l, 0x100, cache.Shared, cache.Modified, 2)
	}
	txn(l, 0x200, cache.Invalid, cache.Exclusive, 0)
	txn(l, 0x300, cache.Invalid, cache.Exclusive, 0) // over MaxBlocks
	f := l.Flight()
	b := f.Block(0x100)
	if b == nil {
		t.Fatal("block 0x100 untracked")
	}
	if got := len(b.Timeline()); got != 4 {
		t.Fatalf("ring holds %d, want FlightDepth=4", got)
	}
	if b.Dropped != 6 || b.Transactions != 10 {
		t.Fatalf("Dropped=%d Transactions=%d, want 6/10", b.Dropped, b.Transactions)
	}
	if b.Invalidations != 20 || b.InvChains != 10 || b.MaxChain != 2 {
		t.Fatalf("churn aggregates wrong: %+v", b)
	}
	if f.Block(0x300) != nil || f.Untracked != 1 {
		t.Fatalf("MaxBlocks not enforced: untracked=%d", f.Untracked)
	}
	// Hottest-first ordering and summaries.
	blocks := f.Blocks()
	if len(blocks) != 2 || blocks[0].Block != 0x100 {
		t.Fatalf("Blocks() order wrong: %+v", blocks)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 2 {
		t.Fatalf("WriteJSONL wrote %d lines, want 2", lines)
	}
}

func TestExplainSumsExactlyToDelta(t *testing.T) {
	subject := New(Config{BucketBytes: 64})
	instr(subject, 0, core.EvLoad, 0, 100, 0x0)
	instr(subject, 0, core.EvStore, 100, 50, 0x40)
	instr(subject, 1, core.EvLoad, 0, 20, 0x0)

	baseline := New(Config{BucketBytes: 64})
	instr(baseline, 0, core.EvLoad, 0, 120, 0x0)
	instr(baseline, 0, core.EvAtomic, 120, 60, 0x80)

	ex, err := Explain("warden", subject, 150, "mesi", baseline, 180)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.CycleDelta != -30 {
		t.Fatalf("CycleDelta = %d, want -30", ex.CycleDelta)
	}
	var sum int64
	for _, d := range ex.Deltas {
		sum += d.Delta
	}
	if sum != ex.CycleDelta {
		t.Fatalf("bucket deltas sum %d != delta %d", sum, ex.CycleDelta)
	}
	// Thread 1's 20 cycles are off the critical path and must not appear.
	for _, d := range ex.Deltas {
		if d.Subject == 20 {
			t.Fatalf("non-critical thread leaked into decomposition: %+v", d)
		}
	}
	kinds := ex.TopKinds()
	if len(kinds) == 0 || abs64(kinds[0].Delta) < abs64(kinds[len(kinds)-1].Delta) {
		t.Fatalf("TopKinds not |delta|-descending: %+v", kinds)
	}
	var txt bytes.Buffer
	if err := ex.WriteText(&txt, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "residue 0") {
		t.Fatalf("text report missing reconciliation line:\n%s", txt.String())
	}
}

func TestExplainRejectsResidue(t *testing.T) {
	subject := New(Config{})
	instr(subject, 0, core.EvLoad, 0, 10, 0)
	baseline := New(Config{})
	instr(baseline, 0, core.EvLoad, 0, 10, 0)
	if _, err := Explain("a", subject, 11, "b", baseline, 10); err == nil {
		t.Fatal("Explain accepted a subject-side residue")
	}
}

func TestLedgerJSONLDeterministic(t *testing.T) {
	build := func() *Ledger {
		l := New(Config{BucketBytes: 64})
		instr(l, 1, core.EvStore, 0, 3, 0x40)
		instr(l, 0, core.EvLoad, 0, 2, 0x0)
		instr(l, 0, core.EvCompute, 2, 1, 0)
		return l
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"bucket":"-"`) {
		t.Fatalf("NoBucket not rendered as '-':\n%s", a.String())
	}
}

func TestAnnotateVocabulary(t *testing.T) {
	cases := []struct {
		tr   Transition
		want string
	}{
		{Transition{Kind: "transaction", Mode: "read", From: "I", To: "E"}, "read miss"},
		{Transition{Kind: "transaction", Mode: "write", From: "S", To: "M", Invalidations: 3}, "3 sharer(s) invalidated"},
		{Transition{Kind: "transaction", Mode: "read", From: "E", To: "S", Downgrades: 1}, "Fwd-GetS"},
		{Transition{Kind: "transaction", Mode: "write", From: "I", To: "W"}, "ward grant"},
		{Transition{Kind: "transaction", Mode: "atomic", From: "W", To: "M"}, "forced reconcile"},
		{Transition{Kind: "evict", LineState: "M"}, "PutM"},
		{Transition{Kind: "reconcile", Writers: 2, SectorMask: 0x3}, "2 writer(s)"},
	}
	for _, c := range cases {
		if got := Annotate(c.tr); !strings.Contains(got, c.want) {
			t.Errorf("Annotate(%+v) = %q, want substring %q", c.tr, got, c.want)
		}
	}
}

func TestSampling(t *testing.T) {
	l := New(Config{SampleEvery: 2})
	for i := uint64(0); i < 6; i++ {
		instr(l, 0, core.EvLoad, i*4, 4, 0)
	}
	s := l.Samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	if s[2].ByKind["load"] != 24 {
		t.Fatalf("last sample cumulative = %d, want 24", s[2].ByKind["load"])
	}
}
