package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseTextRoundTrip is the strong parser guarantee: render a mixed
// set of families (gauges, multi-sample counters, cache stats, escaped
// label values) with WriteFamilies, parse the text back, render again —
// the two documents must be byte-identical.
func TestParseTextRoundTrip(t *testing.T) {
	fams := []Family{
		Gauge("warden_runs_active", "Active runs.", 3),
		{Name: "warden_runs_total", Help: "Runs.", Type: "counter", Metrics: []Metric{
			{Labels: []Label{{Name: "state", Value: "ok"}}, Value: 40},
			{Labels: []Label{{Name: "state", Value: "failed"}}, Value: 2},
		}},
		Counter("weird_label_total", "Escapes: \\ and \n here.", 1,
			Label{Name: "path", Value: `a"b\c` + "\nd"}),
	}
	fams = append(fams, CacheFamilies("warden_memo", "Simulation memo",
		CacheStats{Hits: 10, Misses: 2, Entries: 8})...)

	var first bytes.Buffer
	if err := WriteFamilies(&first, fams); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ParseText: %v\ninput:\n%s", err, first.String())
	}
	var second bytes.Buffer
	if err := WriteFamilies(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
}

func TestCacheStatsFrom(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFamilies(&buf, CacheFamilies("warden_memo", "Memo",
		CacheStats{Hits: 7, Misses: 3, Entries: 5})); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := CacheStatsFrom(fams, "warden_memo")
	if !ok || s.Hits != 7 || s.Misses != 3 || s.Entries != 5 {
		t.Fatalf("CacheStatsFrom = %+v, %v", s, ok)
	}
	if _, ok := CacheStatsFrom(fams, "warden_other_cache"); ok {
		t.Fatal("found stats for absent prefix")
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	if _, err := ParseText(strings.NewReader(`metric{a="unterminated 1`)); err == nil {
		t.Fatal("unterminated label value accepted")
	}
	if _, err := ParseText(strings.NewReader("metric notanumber\n")); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}
