package bench

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warden/internal/attrib"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/obs"
	"warden/internal/pbbs"
	"warden/internal/topology"
)

// TestAttribMatchesUnobserved is the tentpole guarantee for the
// attribution layer, in the same shape as PRs 4/5/9's non-perturbation
// proofs: across all 14 PBBS benchmarks × every registered protocol ×
// both engines, a run with an attrib.Ledger attached produces exactly the
// measurement of a bare run, the ledger reconciles with zero residue
// against the measured cycle count, and the subject:baseline explanations
// (warden:mesi and sisd:mesi) decompose the cycle delta into buckets that
// sum exactly to it.
func TestAttribMatchesUnobserved(t *testing.T) {
	cfg := topology.XeonGold6126(2)
	opts := hlpl.DefaultOptions()
	type side struct {
		led    *attrib.Ledger
		cycles uint64
	}
	ledgers := make(map[string]map[string]side)
	for _, e := range pbbs.Suite {
		ledgers[e.Name] = make(map[string]side)
		for _, proto := range core.All() {
			bare, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: Small.pick(e), Opts: opts}, Instruments{})
			if err != nil {
				t.Fatalf("%s/%v bare: %v", e.Name, proto, err)
			}
			for _, emode := range []machine.EngineMode{machine.EngineSequential, machine.EnginePDES} {
				led := attrib.New(attrib.Config{})
				res, err := Run(Spec{Config: cfg, Protocol: proto, Entry: e, Size: Small.pick(e), Opts: opts},
					Instruments{Engine: emode, Sink: func(*machine.Machine) core.Sink { return led }})
				if err != nil {
					t.Fatalf("%s/%v/%v attrib: %v", e.Name, proto, emode, err)
				}
				if res != bare {
					t.Errorf("%s/%v/%v: attribution perturbed the run:\nbare:   %+v\nattrib: %+v",
						e.Name, proto, emode, bare, res)
				}
				if err := led.Reconcile(res.Cycles); err != nil {
					t.Errorf("%s/%v/%v: %v", e.Name, proto, emode, err)
				}
				if emode == machine.EngineSequential {
					ledgers[e.Name][strings.ToLower(proto.String())] = side{led: led, cycles: res.Cycles}
				}
			}
		}
	}
	for _, e := range pbbs.Suite {
		m := ledgers[e.Name]
		for _, pair := range [][2]string{{"warden", "mesi"}, {"sisd", "mesi"}} {
			s, sok := m[pair[0]]
			b, bok := m[pair[1]]
			if !sok || !bok {
				t.Fatalf("%s: missing ledgers for %v", e.Name, pair)
			}
			ex, err := attrib.Explain(pair[0], s.led, s.cycles, pair[1], b.led, b.cycles)
			if err != nil {
				t.Errorf("%s %s:%s: %v", e.Name, pair[0], pair[1], err)
				continue
			}
			var sum int64
			for _, d := range ex.Deltas {
				sum += d.Delta
			}
			if sum != ex.CycleDelta || ex.CycleDelta != int64(s.cycles)-int64(b.cycles) {
				t.Errorf("%s %s:%s: buckets sum %d, delta %d (subject %d baseline %d)",
					e.Name, pair[0], pair[1], sum, ex.CycleDelta, s.cycles, b.cycles)
			}
		}
	}
}

// TestRunnerAttribArtifactsAndMetrics covers the harness wiring: a Runner
// with SetAttrib writes the .attrib.jsonl/.blocks.jsonl artifacts,
// registers flight-recorder summaries on the run (served at
// /runs/{id}/blocks), and exports the warden_attrib_* families.
func TestRunnerAttribArtifactsAndMetrics(t *testing.T) {
	dir := t.TempDir()
	e, err := pbbs.ByName("primes")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := NewRunner(Small)
	r.SetObserver(reg)
	r.SetAttrib(AttribConfig{Dir: dir})
	// Telemetry rides the same instrumented path; enabling both pins the
	// composed-sink matrix (each sink alone is covered elsewhere).
	r.SetTelemetry(TelemetryConfig{Dir: t.TempDir()})
	cfg := eventsTestConfig()
	plain, err := Run(Spec{Config: cfg, Protocol: core.Protocols("warden")[0], Entry: e, Size: Small.pick(e), Opts: r.Opts}, Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.runWith(cfg, core.Protocols("warden")[0], e, Small.pick(e), r.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if res != plain {
		t.Fatalf("attrib-enabled Runner perturbed the measurement:\nplain: %+v\ngot:   %+v", plain, res)
	}
	for _, suffix := range []string{".attrib.jsonl", ".blocks.jsonl"} {
		matches, _ := filepath.Glob(filepath.Join(dir, "*"+suffix))
		if len(matches) != 1 {
			t.Fatalf("want one %s artifact in %s, got %v", suffix, dir, matches)
		}
		if data, err := os.ReadFile(matches[0]); err != nil || len(data) == 0 {
			t.Fatalf("artifact %s unreadable or empty: %v", matches[0], err)
		}
	}

	// Flight summaries reach /runs/{id}/blocks.
	srv := &obs.Server{Registry: reg, Sources: []obs.Source{r}, DisableRuntimeMetrics: true}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := httpGet(t, ts.URL+"/runs/1/blocks")
	if !strings.Contains(body, `"transactions"`) {
		t.Fatalf("/runs/1/blocks missing flight summaries:\n%.400s", body)
	}
	metrics := httpGet(t, ts.URL+"/metrics")
	for _, fam := range []string{
		"warden_attrib_runs_total", "warden_attrib_cycles_total",
		"warden_attrib_accounts_total", "warden_attrib_blocks_total",
		"warden_attrib_residue_total",
	} {
		if !strings.Contains(metrics, "# TYPE "+fam+" counter") {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	if !strings.Contains(metrics, "warden_attrib_runs_total 1") {
		t.Errorf("warden_attrib_runs_total != 1:\n%s", grepLines(metrics, "warden_attrib"))
	}
	if !strings.Contains(metrics, fmt.Sprintf("warden_attrib_cycles_total %d", res.Cycles)) {
		t.Errorf("warden_attrib_cycles_total != run cycles %d:\n%s", res.Cycles, grepLines(metrics, "warden_attrib"))
	}
	if !strings.Contains(metrics, "warden_attrib_residue_total 0") {
		t.Errorf("warden_attrib_residue_total not zero:\n%s", grepLines(metrics, "warden_attrib"))
	}
}

// httpGet fetches url and returns the body, failing the test on any error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// grepLines filters body to lines containing sub, for failure output.
func grepLines(body, sub string) string {
	var out []string
	for _, ln := range strings.Split(body, "\n") {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
