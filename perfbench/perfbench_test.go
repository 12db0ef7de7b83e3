package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"warden/internal/core"
	"warden/internal/machine"
	"warden/internal/mem"
	"warden/internal/pbbs"
	"warden/internal/stats"
	"warden/internal/telemetry"
	"warden/internal/topology"
)

func TestWorkloadMatrices(t *testing.T) {
	type matrix struct {
		benches, protos []string
		sockets         []int
		engine          machine.EngineMode
		sinks           bool
	}
	want := map[string]matrix{
		"fig8_seq": {pbbs.Names(), []string{"mesi", "warden"}, []int{2}, machine.EngineSequential, false},
		"threeway_lens_pdes": {[]string{"nn", "dmm", "fib", "tokens", "nqueens"},
			[]string{"mesi", "warden", "sisd"}, []int{2}, machine.EnginePDES, true},
		"manysocket_short": {[]string{"fib", "nqueens", "make_array"},
			[]string{"mesi", "warden"}, []int{1, 2, 4, 8}, machine.EngineSequential, false},
	}
	if len(workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(workloads), len(want))
	}
	for _, w := range workloads {
		m, ok := want[w.name]
		if !ok {
			t.Fatalf("unexpected workload %s", w.name)
		}
		sims, err := w.sims(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		nb, np := len(m.benches), len(m.protos)
		if len(sims) != nb*np*len(m.sockets) {
			t.Fatalf("%s: %d simulations, want %d", w.name, len(sims), nb*np*len(m.sockets))
		}
		for i, s := range sims {
			bench, proto, sockets := m.benches[i/np%nb], m.protos[i%np], m.sockets[i/(np*nb)]
			if s.entry.Name != bench || strings.ToLower(s.proto.String()) != proto ||
				s.cfg.Sockets != sockets || s.engine != m.engine || s.sinks != m.sinks || s.size != s.entry.Small {
				t.Errorf("%s: simulation %d is %s, want %s/%s on %d sockets", w.name, i, s.name(), bench, proto, sockets)
			}
		}
	}
	if c := socketConfig(8); c.Cores() != 64 {
		t.Errorf("8-socket machine has %d cores, want 64", c.Cores())
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny is a one-benchmark workload that runs in well under a second and
// covers both engines' sinks and the self-invalidating protocol.
var tiny = workload{
	name: "tiny", benches: []string{"fib"}, protos: []string{"mesi", "sisd"},
	sockets: []int{1}, engine: machine.EnginePDES, sinks: true,
}

func TestMetricsDeclared(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for traced, want := range map[bool]map[string]string{false: endToEnd, true: perLayer} {
		// A seed without goldens: the tiny workload has none.
		rep, err := run(tiny, defaultSeed+1, 1, traced, filepath.Join(t.TempDir(), "spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Fatalf("traced=%v: %+v", traced, rep)
		}
		got := map[string]string{}
		for name, m := range rep.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: printed metrics\n%v\ndeclared\n%v", traced, got, want)
		}
	}
	if len(units) != len(endToEnd)+len(perLayer) {
		t.Errorf("units declares %d metrics, BENCHMARK.json %d", len(units), len(endToEnd)+len(perLayer))
	}
}

func TestReplaysReproduceLiveRun(t *testing.T) {
	fib, err := pbbs.ByName("fib")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []machine.EngineMode{machine.EngineSequential, machine.EnginePDES} {
		for _, p := range []string{"mesi", "warden", "sisd"} {
			proto, _ := core.Lookup(p)
			s := sim{entry: fib, size: fib.Small, proto: proto, cfg: topology.XeonGold6126(1), engine: eng, sinks: p == "warden"}
			l := newLayers()
			if err := traceSim(s, newTracer(), l, &checker{first: map[string]golden{}}); err != nil {
				t.Fatalf("%s: %v", s.name(), err)
			}
			if m := l.metrics(); m["engine.ops"] == 0 || m["engine.host_ops"] == 0 || m["core.accesses"] == 0 || m["engine.replay_s"] <= 0 {
				t.Errorf("%s: nothing replayed: %v", s.name(), m)
			}
		}
	}
}

// The residual is a few percent of a small simulation's run, well inside
// its run-to-run noise, so the check takes the median of several traced
// runs as the benchmark does over passes.
func TestSelfTimeNonNegative(t *testing.T) {
	nq, err := pbbs.ByName("nqueens")
	if err != nil {
		t.Fatal(err)
	}
	s := sim{entry: nq, size: nq.Small, proto: core.MESI, cfg: topology.XeonGold6126(1), engine: machine.EngineSequential}
	var self []float64
	for i := 0; i < 5; i++ {
		l := newLayers()
		if err := traceSim(s, newTracer(), l, &checker{first: map[string]golden{}}); err != nil {
			t.Fatal(err)
		}
		self = append(self, l.metrics()["hlpl.self_s"])
	}
	if median(self) < 0 {
		t.Errorf("%s: hlpl.self_s = %v, median %v, want >= 0", s.name(), self, median(self))
	}
}

// record runs s once with the recording sink attached.
func record(t *testing.T, s sim) (*recorder, uint64, stats.Counters) {
	t.Helper()
	p := prepare(s)
	r := &recorder{}
	p.m.System().SetSink(r)
	cycles, err := p.rt.Run(p.w.Root)
	if err != nil {
		t.Fatal(err)
	}
	return r, cycles, *p.m.Counters()
}

func TestReplaysDetectDivergence(t *testing.T) {
	fib, _ := pbbs.ByName("fib")
	s := sim{entry: fib, size: 12, proto: core.MESI, cfg: topology.XeonGold6126(1), engine: machine.EngineSequential}
	r, cycles, live := record(t, s)

	// Delaying one thread's first op reorders the serialized ops.
	first := -1
	for i, x := range r.recs {
		if x.thread == 1 {
			first = i
			break
		}
	}
	r.recs[first].adv += 1000
	if err := newEngineReplay(r, s.cfg, s.proto, s.engine).run(cycles); err == nil {
		t.Error("engine replay accepted a delayed op")
	}
	r.recs[first].adv -= 1000

	// Dropping a load changes the memory system's counters.
	for i, x := range r.recs {
		if x.kind == core.EvLoad {
			r.recs = append(r.recs[:i:i], r.recs[i+1:]...)
			break
		}
	}
	var ctr stats.Counters
	if _, err := replayCore(r, core.NewSystem(s.cfg, s.proto, mem.New(0), &ctr), &ctr); err != nil {
		t.Fatal(err)
	}
	if memorySystemCounters(ctr) == memorySystemCounters(live) {
		t.Error("core replay counters match the live run after a load was dropped")
	}
}

func TestSpansValidate(t *testing.T) {
	sims, err := tiny.sims(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{sims: sims, chk: &checker{first: map[string]golden{}}}
	tr := newTracer()
	b.tracedPass(tr)
	if b.failed != 0 {
		t.Fatalf("%d of %d simulations failed", b.failed, b.attempted)
	}
	var buf bytes.Buffer
	if err := tr.writeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidatePerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Slices != len(tr.spans) {
		t.Errorf("%d slices, want one per span (%d)", st.Slices, len(tr.spans))
	}
	roots := 0
	for i, d := range tr.selfTimes() {
		if d < 0 {
			t.Errorf("span %s has negative self time %v", tr.spans[i].name, d)
		}
		if tr.spans[i].parent < 0 {
			roots++
		}
	}
	if roots != len(sims) {
		t.Errorf("%d root spans, want one per simulation (%d)", roots, len(sims))
	}
}

func TestGoldensCoverDefaultSeed(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		sims, err := w.sims(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sims {
			if _, ok := g[s.name()]; !ok {
				t.Errorf("no golden for %s", s.name())
			}
		}
	}
}

// The benchmark drives the layers itself: it must not go through the
// experiment harness, the sweep fabric or the span library.
func TestImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "warden/internal/bench", "warden/internal/fleet", "warden/internal/span":
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}
