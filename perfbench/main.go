// Command perfbench is the repository's host-time benchmark. It runs one
// named workload — a matrix of simulations driven in-process through the
// simulator's layers — for a fixed time, checks every simulated result, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload fig8_seq --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes. With
// --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics of the traced ones, writing their spans as a
// trace_event file to .bench_build/spans-<workload>.json. See README.md for
// the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// units declares every metric the benchmark prints, with its unit.
var units = map[string]string{
	// End to end (--trace 0).
	"wall_s":           "s",
	"sim_minstr_per_s": "Minstr/s",
	"setup_s":          "s",
	"peak_rss_mb":      "MB",
	"alloc_mb":         "MB",

	// Per layer (--trace 1).
	"pbbs.gen_s":                "s",
	"pbbs.verify_s":             "s",
	"machine.new_s":             "s",
	"machine.new_alloc_mb":      "MB",
	"cache.new_s":               "s",
	"cache.new_alloc_mb":        "MB",
	"hlpl.run_s":                "s",
	"engine.ops":                "count",
	"engine.ns_per_op":          "ns",
	"engine.replay_s":           "s",
	"engine.replay_ns_per_op":   "ns",
	"engine.host_ops":           "count",
	"engine.host_est_s":         "s",
	"core.replay_s":             "s",
	"core.ns_per_access.mesi":   "ns",
	"core.ns_per_access.warden": "ns",
	"core.ns_per_access.sisd":   "ns",
	"core.accesses":             "count",
	"core.l1_hit_ratio":         "ratio",
	"core.dir_txn_per_kinstr":   "1/kinstr",
	"core.invdg_per_kinstr":     "1/kinstr",
	"hlpl.self_s":               "s",
	"machine.emit_ns_per_op":    "ns",
	"attrib.ns_per_event":       "ns",
	"telemetry.ns_per_event":    "ns",
	"sink.events":               "count",
	"attrib.reconcile_s":        "s",
	"attrib.dump_s":             "s",
	"trace.overhead_s":          "s",
	"fail_ratio":                "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig8_seq, threeway_lens_pdes or manysocket_short")
	seed := flag.Int64("seed", defaultSeed, "input seed; the default seed runs the preset sizes the goldens pin")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	goldens := flag.String("write-goldens", "", "run every workload at the default seed, write the goldens to this file, and exit")
	flag.Parse()

	if *goldens != "" {
		if err := writeGoldens(*goldens); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	spans := filepath.Join(".bench_build", "spans-"+w.name+".json")
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

// bench is one invocation's state: the workload's simulations, the result
// checker, and the failure tally.
type bench struct {
	sims      []sim
	chk       *checker
	attempted int
	failed    int
	// setups holds each simulation's cold set-up times from setupRounds.
	setups [][]float64
}

func (b *bench) note(s sim, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name(), err)
	}
}

// untracedPass runs every simulation once, untraced, and returns the
// per-simulation results in matrix order. The simulations run back to back
// as the simulator's own callers run them, so the runtime collects one
// simulation's garbage inside the measured simulations that follow.
func (b *bench) untracedPass() []result {
	out := make([]result, len(b.sims))
	for i, s := range b.sims {
		t0 := time.Now()
		r, err := runSim(s)
		if err == nil {
			err = b.chk.check(s, r.cycles, r.ctr)
		}
		r.wall = time.Since(t0)
		b.note(s, err)
		out[i] = r
	}
	return out
}

// setupRounds sets every simulation up again, round after round, for
// about d (at least one round), and keeps each set-up's time. Each set-up
// starts right after debug.FreeOSMemory, so that it faults its machine's
// tag arrays in from the OS as a fresh process does. A set-up inside a
// pass instead faults in however much of the previous machine's memory
// the runtime's scavenger has returned meanwhile, which varies from pass
// to pass by up to three times.
func (b *bench) setupRounds(d time.Duration) {
	if b.setups == nil {
		b.setups = make([][]float64, len(b.sims))
	}
	for start := time.Now(); time.Since(start) < d; {
		for i, s := range b.sims {
			debug.FreeOSMemory()
			t, err := setupOnly(s)
			if err != nil {
				b.note(s, err)
				continue
			}
			b.setups[i] = append(b.setups[i], t.Seconds())
		}
	}
}

// endToEnd summarizes the untraced passes and set-up rounds. Each
// simulation's times are its medians over the passes (set-up: over the
// rounds), so a burst of host noise that slows one simulation in one pass
// does not move the sum; wall_s is the time one pass of the matrix takes.
func endToEnd(passes [][]result, setups [][]float64, allocs []float64) map[string]float64 {
	var wall, setup, run float64
	var instrs uint64
	for i := range passes[0] {
		var w, r []float64
		for _, p := range passes {
			w = append(w, p[i].wall.Seconds())
			r = append(r, p[i].run.Seconds())
		}
		wall += median(w)
		setup += median(setups[i])
		run += median(r)
		instrs += passes[0][i].ctr.Instructions
	}
	return map[string]float64{
		"wall_s":           wall,
		"sim_minstr_per_s": float64(instrs) / 1e6 / run,
		"setup_s":          setup,
		"alloc_mb":         median(allocs),
	}
}

// tracedPass runs every simulation through traceSim and returns the pass's
// per-layer metrics.
func (b *bench) tracedPass(tr *tracer) map[string]float64 {
	l := newLayers()
	for _, s := range b.sims {
		b.note(s, traceSim(s, tr, l, b.chk))
	}
	return l.metrics()
}

// run measures passes until the next one would overrun the budget (at
// least one). With traced set, each pass is an untraced pass followed by a
// traced one, and each per-layer metric is its median over the passes.
func run(w workload, seed int64, budget time.Duration, traced bool, spansOut string) (report, error) {
	sims, err := w.sims(seed)
	if err != nil {
		return report{}, err
	}
	chk, err := newChecker(seed)
	if err != nil {
		return report{}, err
	}
	b := &bench{sims: sims, chk: chk}
	tr := newTracer()
	var passes [][]result
	var allocs, untracedWall, tracedWall []float64
	var layerPasses []map[string]float64
	start := time.Now()
	for {
		// Every pass starts on a collected heap, so that the garbage of a
		// traced pass or of set-up rounds is not charged to the next pass.
		runtime.GC()
		p0 := time.Now()
		a0 := allocBytes()
		passes = append(passes, b.untracedPass())
		allocs = append(allocs, float64(allocBytes()-a0)/1e6)
		untracedWall = append(untracedWall, time.Since(p0).Seconds())
		if traced {
			t0 := time.Now()
			layerPasses = append(layerPasses, b.tracedPass(tr))
			tracedWall = append(tracedWall, time.Since(t0).Seconds())
		} else {
			b.setupRounds(time.Since(p0) / 4)
		}
		if time.Since(start)+time.Since(p0) > budget {
			break
		}
	}

	var values map[string]float64
	if traced {
		values = make(map[string]float64)
		for k := range layerPasses[0] {
			var vs []float64
			for _, p := range layerPasses {
				vs = append(vs, p[k])
			}
			values[k] = median(vs)
		}
		values["trace.overhead_s"] = median(tracedWall) - median(untracedWall)
		values["fail_ratio"] = float64(b.failed) / float64(b.attempted)
		if err := writeSpans(tr, spansOut); err != nil {
			return report{}, err
		}
	} else {
		values = endToEnd(passes, b.setups, allocs)
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return report{}, fmt.Errorf("getrusage: %w", err)
		}
		values["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	rep := report{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metric, len(values)),
	}
	for k, v := range values {
		rep.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes of %d simulations, GOMAXPROCS %d\n",
		w.name, seed, len(passes), len(sims), runtime.GOMAXPROCS(0))
	return rep, nil
}

func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// median is 0 for no values (a simulation that failed every time).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
