package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"warden/internal/stats"
)

// golden is a simulation's pinned result: its simulated cycles and a digest
// of its stats.Counters.
type golden struct {
	Cycles   uint64 `json:"cycles"`
	Counters string `json:"counters"`
}

func goldenOf(cycles uint64, ctr stats.Counters) golden {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", ctr)))
	return golden{Cycles: cycles, Counters: fmt.Sprintf("%x", sum[:8])}
}

// goldensJSON pins every simulation of every workload at the default seed,
// generated from the simulator with --write-goldens.
//
//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// checker fails a simulation whose result differs from its golden (default
// seed only) or from an earlier run of the same simulation in this process.
type checker struct {
	goldens map[string]golden
	first   map[string]golden
}

func newChecker(seed int64) (*checker, error) {
	c := &checker{first: make(map[string]golden)}
	if seed == defaultSeed {
		g, err := loadGoldens()
		if err != nil {
			return nil, err
		}
		c.goldens = g
	}
	return c, nil
}

func (c *checker) check(s sim, cycles uint64, ctr stats.Counters) error {
	got := goldenOf(cycles, ctr)
	name := s.name()
	if c.goldens != nil {
		want, ok := c.goldens[name]
		if !ok {
			return fmt.Errorf("no golden for %s", name)
		}
		if got != want {
			return fmt.Errorf("differs from golden: cycles %d counters %s, want cycles %d counters %s",
				got.Cycles, got.Counters, want.Cycles, want.Counters)
		}
	}
	if prev, ok := c.first[name]; ok && prev != got {
		return fmt.Errorf("not reproducible: cycles %d counters %s, earlier run cycles %d counters %s",
			got.Cycles, got.Counters, prev.Cycles, prev.Counters)
	}
	c.first[name] = got
	return nil
}

// writeGoldens runs every simulation of every workload once at the default
// seed and writes their results to path.
func writeGoldens(path string) error {
	out := make(map[string]golden)
	for _, w := range workloads {
		sims, err := w.sims(defaultSeed)
		if err != nil {
			return err
		}
		for _, s := range sims {
			r, err := runSim(s)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name(), err)
			}
			out[s.name()] = goldenOf(r.cycles, r.ctr)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
