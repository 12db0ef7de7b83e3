package bench

import (
	"bytes"
	"strings"
	"testing"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

func TestRunVerifies(t *testing.T) {
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	res, err := Run(Spec{Config: cfg, Protocol: core.WARDen, Entry: e, Size: e.Small, Opts: hlpl.DefaultOptions()}, Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Counters.Instructions == 0 || res.Energy.Total <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestComparisonMetrics(t *testing.T) {
	c := Comparison{Name: "x"}
	c.MESI.Cycles = 2000
	c.WARDen.Cycles = 1000
	c.MESI.Counters.Instructions = 10_000
	c.WARDen.Counters.Instructions = 10_000
	c.MESI.Counters.Invalidations = 300
	c.MESI.Counters.Downgrades = 100
	c.WARDen.Counters.Invalidations = 100
	c.WARDen.Counters.Downgrades = 50
	c.MESI.Energy.Total, c.WARDen.Energy.Total = 10, 8
	c.MESI.Energy.Interconnect, c.WARDen.Energy.Interconnect = 4, 1

	if c.Speedup() != 2 {
		t.Fatalf("speedup = %v", c.Speedup())
	}
	if c.InvDgReduced() != 250 {
		t.Fatalf("reduced = %d", c.InvDgReduced())
	}
	if got := c.InvDgReducedPerKilo(); got != 25 {
		t.Fatalf("per kilo = %v", got)
	}
	d, i := c.ReductionShares()
	if d != 20 || i != 80 {
		t.Fatalf("shares = %v/%v, want 20/80", d, i)
	}
	if c.TotalEnergySavings() != 20 || c.InterconnectSavings() != 75 {
		t.Fatalf("savings = %v/%v", c.TotalEnergySavings(), c.InterconnectSavings())
	}
	// IPC: MESI 5, WARDen 10 => +100%.
	if got := c.IPCImprovement(); got != 100 {
		t.Fatalf("IPC improvement = %v", got)
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(Small)
	runs := 0
	r.Progress = func(string) { runs++ }
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	e, _ := pbbs.ByName("fib")
	if _, err := r.Compare(cfg, e); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("first compare simulated %d runs, want 2", runs)
	}
	if _, err := r.Compare(cfg, e); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("second compare re-simulated (%d runs)", runs)
	}
}

func TestMeans(t *testing.T) {
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{0, 2}) != 0 {
		t.Fatal("geomean edge cases")
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
}

func TestTable1Report(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, nil, 300); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Same core", "Diff. core, same socket", "Diff. core, diff. socket", "1213.59"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Report(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	for _, want := range []string{"32 KB", "256 KB", "2.5 MB", "6-16-71", "3.3 GHz", "12"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSectorGranularityTrial(t *testing.T) {
	// Byte sectoring must be lossless; whole-block sectoring must corrupt
	// interleaved writers (that is the §6.1 point).
	lossless, err := sectorGranularityTrial(1)
	if err != nil {
		t.Fatal(err)
	}
	if lossless != 0 {
		t.Fatalf("byte sectoring corrupted %d bytes", lossless)
	}
	coarse, err := sectorGranularityTrial(64)
	if err != nil {
		t.Fatal(err)
	}
	if coarse == 0 {
		t.Fatal("block-granularity sectoring lost no data; the ablation is vacuous")
	}
}
