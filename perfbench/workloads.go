package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"warden/internal/core"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/topology"

	// SiSd registers itself with the protocol registry on import.
	_ "warden/internal/sisd"
)

// defaultSeed selects every benchmark's preset Small size; the goldens are
// pinned for it.
const defaultSeed = 1

// sim is one simulation of a workload's matrix.
type sim struct {
	entry  pbbs.Entry
	size   int
	proto  core.Protocol
	cfg    topology.Config
	engine machine.EngineMode
	// sinks attaches an attrib.Ledger and a telemetry.Capture, the
	// wardenlens / wardenbench -attrib path.
	sinks bool
}

// name identifies the simulation in goldens, spans and error messages.
func (s sim) name() string {
	return fmt.Sprintf("%s:%d/%v/%s/%v", s.entry.Name, s.size, s.proto, s.cfg.Name, s.engine)
}

// workload is one named simulation matrix. Every matrix runs one
// simulation at a time.
type workload struct {
	name    string
	benches []string
	protos  []string
	sockets []int
	engine  machine.EngineMode
	sinks   bool
}

// workloads are chosen to load different layers (see README.md):
// fig8_seq is the paper's headline matrix and is dominated by the engine
// handoff; threeway_lens_pdes is the only one where the attached sinks do
// most of the work, and it drives core through SiSd's SyncPoint and
// WARDen's W-state reconcile under PDES; manysocket_short is dominated by
// machine.New's eager tag arrays.
var workloads = []workload{
	{
		name:    "fig8_seq",
		benches: pbbs.Names(),
		protos:  []string{"mesi", "warden"},
		sockets: []int{2},
		engine:  machine.EngineSequential,
	},
	{
		name:    "threeway_lens_pdes",
		benches: []string{"nn", "dmm", "fib", "tokens", "nqueens"},
		protos:  []string{"mesi", "warden", "sisd"},
		sockets: []int{2},
		engine:  machine.EnginePDES,
		sinks:   true,
	},
	{
		name:    "manysocket_short",
		benches: []string{"fib", "nqueens", "make_array"},
		protos:  []string{"mesi", "warden"},
		sockets: []int{1, 2, 4, 8},
		engine:  machine.EngineSequential,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sims expands the workload into its simulations, socket count outermost,
// then benchmark, then protocol.
func (w workload) sims(seed int64) ([]sim, error) {
	var out []sim
	for _, sockets := range w.sockets {
		cfg := socketConfig(sockets)
		for _, b := range w.benches {
			e, err := pbbs.ByName(b)
			if err != nil {
				return nil, err
			}
			for _, p := range w.protos {
				proto, ok := core.Lookup(p)
				if !ok {
					return nil, fmt.Errorf("unknown protocol %q", p)
				}
				out = append(out, sim{
					entry: e, size: sizeFor(e, seed), proto: proto,
					cfg: cfg, engine: w.engine, sinks: w.sinks,
				})
			}
		}
	}
	return out, nil
}

// socketConfig is the socket-scaling study's machine: Table 2's Xeon up to
// two sockets, the rising-latency ManySocket topology beyond, trimmed to
// the directory sharer mask's 64 cores (as wardenbench's manysocket
// experiment builds it).
func socketConfig(sockets int) topology.Config {
	if sockets <= 2 {
		return topology.XeonGold6126(sockets)
	}
	cfg := topology.ManySocket(sockets)
	if cfg.Cores() > 64 {
		cfg.CoresPerSocket = 64 / sockets
		cfg.Name = fmt.Sprintf("%s-%dc", cfg.Name, cfg.CoresPerSocket)
	}
	return cfg
}

// sizeFor picks the input size for e. The PBBS generators fix their own RNG
// seeds, so the benchmark seed varies the size instead: element counts move
// within ±2% of the Small preset. Presets below 100 are the exponential or
// polynomial parameters (fib, nqueens, dmm, ray), where one step is far
// more than 2% of the work; they stay fixed. The range stops short of
// nn at 1030 points, where the simulated program runs about a quarter
// fewer instructions than anywhere in 970-1025: a jump in the input's
// work, not in the simulator's speed. The default seed is the preset.
func sizeFor(e pbbs.Entry, seed int64) int {
	if seed == defaultSeed || e.Small < 100 {
		return e.Small
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", e.Name, seed)
	pct := rand.New(rand.NewSource(int64(h.Sum64()))).Intn(5) - 2
	return (e.Small*(100+pct) + 50) / 100
}
