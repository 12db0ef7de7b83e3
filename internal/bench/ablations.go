package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/mem"
	"warden/internal/pbbs"
	"warden/internal/runner"
	"warden/internal/topology"
)

// Ablations runs the design-choice studies listed in DESIGN.md §5 and
// prints their reports. All simulations route through r, so they fan out
// across the host pool and share r's memo with the other figures.
func Ablations(w io.Writer, r *Runner) error {
	if err := AblationWardSources(w, r); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := AblationRegionCapacity(w, r); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := AblationSectorGranularity(w, r); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return AblationBaselines(w, r)
}

// AblationBaselines compares WARDen against a *stronger* legacy baseline
// than the paper uses: MOESI, whose Owned state avoids the writeback on
// dirty sharing and lets owners source data. It answers "how much of
// WARDen's win could a better conventional protocol claw back?"
func AblationBaselines(w io.Writer, r *Runner) error {
	subset := []string{"msort", "suffix-array", "primes", "tokens"}
	cfg := topology.XeonGold6126(2)
	protos := core.Protocols("mesi", "moesi", "warden")
	entries, err := entriesByName(subset)
	if err != nil {
		return err
	}
	// Warm the whole (benchmark × protocol) matrix in parallel, then
	// render from the memo.
	if err := r.warm(len(entries)*len(protos), func(i int) (topology.Config, core.Protocol, pbbs.Entry, hlpl.Options) {
		return cfg, protos[i%len(protos)], entries[i/len(protos)], hlpl.DefaultOptions()
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: protocol baselines (dual socket, speedup vs MESI)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tMOESI\tWARDen")
	for _, e := range entries {
		base, err := r.runWith(cfg, core.MESI, e, r.Sizes.pick(e), hlpl.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s", e.Name)
		for _, p := range core.Protocols("moesi", "warden") {
			res, err := r.runWith(cfg, p, e, r.Sizes.pick(e), hlpl.DefaultOptions())
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.2fx", float64(base.Cycles)/float64(res.Cycles))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// AblationWardSources decomposes WARDen's speedup into its two region
// sources: leaf-heap page marking (§4.2) and library bulk-operation scopes.
func AblationWardSources(w io.Writer, r *Runner) error {
	subset := []string{"primes", "msort", "palindrome", "tokens"}
	cfg := topology.XeonGold6126(2)
	variants := []struct {
		name string
		opts hlpl.Options
	}{
		{"full WARDen", hlpl.Options{MarkHeapPages: true, MarkScopes: true}},
		{"heap pages only", hlpl.Options{MarkHeapPages: true, MarkScopes: false}},
		{"library scopes only", hlpl.Options{MarkHeapPages: false, MarkScopes: true}},
	}
	entries, err := entriesByName(subset)
	if err != nil {
		return err
	}
	// Per benchmark: the MESI baseline plus the three WARDen variants.
	cells := 1 + len(variants)
	if err := r.warm(len(entries)*cells, func(i int) (topology.Config, core.Protocol, pbbs.Entry, hlpl.Options) {
		e := entries[i/cells]
		if i%cells == 0 {
			return cfg, core.MESI, e, hlpl.DefaultOptions()
		}
		return cfg, core.WARDen, e, variants[i%cells-1].opts
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: WARD region sources (dual-socket speedup vs MESI)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Benchmark")
	for _, v := range variants {
		fmt.Fprintf(tw, "\t%s", v.name)
	}
	fmt.Fprintln(tw)
	for _, e := range entries {
		base, err := r.runWith(cfg, core.MESI, e, r.Sizes.pick(e), hlpl.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s", e.Name)
		for _, v := range variants {
			res, err := r.runWith(cfg, core.WARDen, e, r.Sizes.pick(e), v.opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.2fx", float64(base.Cycles)/float64(res.Cycles))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// AblationRegionCapacity sweeps the directory's WARD region table capacity.
// The paper sizes the CAM at 1024 entries (§6.1); the sweep shows how
// gracefully WARDen degrades to MESI as AddRegion overflows.
func AblationRegionCapacity(w io.Writer, r *Runner) error {
	e, err := pbbs.ByName("msort")
	if err != nil {
		return err
	}
	size := r.Sizes.pick(e)
	capacities := []int{2, 8, 32, 128, 1024}
	capCfg := func(capacity int) topology.Config {
		cfg := topology.XeonGold6126(2)
		cfg.Name = fmt.Sprintf("%s-cap%d", cfg.Name, capacity)
		cfg.WardRegionCapacity = capacity
		return cfg
	}
	if err := r.warm(1+len(capacities), func(i int) (topology.Config, core.Protocol, pbbs.Entry, hlpl.Options) {
		if i == 0 {
			return topology.XeonGold6126(2), core.MESI, e, hlpl.DefaultOptions()
		}
		return capCfg(capacities[i-1]), core.WARDen, e, hlpl.DefaultOptions()
	}); err != nil {
		return err
	}
	base, err := r.runWith(topology.XeonGold6126(2), core.MESI, e, size, hlpl.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: WARD region table capacity (msort, dual socket)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Capacity\tSpeedup vs MESI\tAddRegion overflows")
	for _, capacity := range capacities {
		res, err := r.runWith(capCfg(capacity), core.WARDen, e, size, hlpl.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%.2fx\t%d\n", capacity,
			float64(base.Cycles)/float64(res.Cycles), res.Counters.RegionOverflows)
	}
	return tw.Flush()
}

// AblationSectorGranularity demonstrates why reconciliation needs sectored
// caches (§6.1): four cores write interleaved bytes of shared blocks inside
// a WARD region. Byte sectoring reconciles losslessly; coarser sectors make
// false sharing look like true sharing, and last-writer-wins merging then
// corrupts the other writers' bytes.
func AblationSectorGranularity(w io.Writer, r *Runner) error {
	sectors := []uint64{1, 8, 64}
	// The trials bypass Run (they inspect memory bytes, not counters)
	// but still fan out over the runner's pool.
	corrupted, err := runner.Map(r.pool, len(sectors), func(i int) (int, error) {
		return sectorGranularityTrial(sectors[i])
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: sector granularity (4 cores writing interleaved bytes in one WARD region)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Sector size\tCorrupted bytes\tVerdict")
	for i, sector := range sectors {
		verdict := "correct"
		if corrupted[i] > 0 {
			verdict = "DATA LOSS (false sharing merged as true sharing)"
		}
		fmt.Fprintf(tw, "%d B\t%d\t%s\n", sector, corrupted[i], verdict)
	}
	fmt.Fprintln(tw, "(byte sectoring costs ~7.9% cache area per the paper's CACTI estimate)")
	return tw.Flush()
}

// entriesByName resolves benchmark names, failing on the first unknown.
func entriesByName(names []string) ([]pbbs.Entry, error) {
	out := make([]pbbs.Entry, 0, len(names))
	for _, n := range names {
		e, err := pbbs.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// sectorGranularityTrial runs the interleaved-writer kernel at one sector
// size and counts bytes whose final value is wrong.
func sectorGranularityTrial(sector uint64) (int, error) {
	cfg := topology.XeonGold6126(1)
	cfg.CoresPerSocket = 4
	m := machine.New(cfg, core.WARDen)
	m.System().SetSectorSize(sector)
	const nBytes = 4096
	buf := m.Mem().Alloc(nBytes, mem.PageSize)

	writers := cfg.Threads()
	bodies := make([]func(*machine.Ctx), writers)
	for tid := 0; tid < writers; tid++ {
		tid := tid
		bodies[tid] = func(ctx *machine.Ctx) {
			var id core.RegionID
			if tid == 0 {
				id, _ = ctx.AddRegion(buf, buf+nBytes)
			}
			// Rendezvous crudely: everyone computes past the region add.
			ctx.Compute(64)
			for i := tid; i < nBytes; i += writers {
				ctx.Store(buf+mem.Addr(i), 1, uint64(100+tid))
			}
			ctx.Fence()
			if tid == 0 {
				ctx.Compute(100_000) // let the other writers finish first
				ctx.RemoveRegion(id)
			}
		}
	}
	if _, err := m.Run(bodies); err != nil {
		return 0, err
	}
	corrupted := 0
	for i := 0; i < nBytes; i++ {
		want := byte(100 + i%writers)
		if m.Mem().ByteAt(buf+mem.Addr(i)) != want {
			corrupted++
		}
	}
	return corrupted, nil
}
