// Command wardensim runs one benchmark on one simulated machine and prints
// detailed architectural statistics — the tool for exploring a single
// configuration rather than regenerating the paper's figures.
//
// Usage:
//
//	wardensim -bench msort -protocol warden -sockets 2 -size 24000
//	wardensim -bench primes -protocol all -v
//	wardensim -bench msort -protocol mesi,sisd
//	wardensim -bench msort -engine pdes      # parallel engine, same results
//	wardensim -bench msort -serve :8080 -serve-linger 30s
//
// With -serve ADDR the process exposes Prometheus metrics (/metrics,
// including live simulated-cycle progress), a JSON run registry (/runs),
// and net/http/pprof while simulating; -serve-linger keeps the server up
// after the runs finish. Serving is host-side only and never changes the
// simulated results.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"text/tabwriter"
	"time"

	"warden/internal/bench"
	"warden/internal/engine"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/obs"
	"warden/internal/pbbs"
	"warden/internal/protocols"
	"warden/internal/stats"
	"warden/internal/topology"
)

func main() {
	name := flag.String("bench", "primes", "benchmark name (see -list)")
	protocol := flag.String("protocol", "mesi,warden", protocols.Usage())
	sockets := flag.Int("sockets", 2, "socket count")
	cores := flag.Int("cores", 0, "cores per socket (0 = Table 2 default of 12)")
	size := flag.Int("size", 0, "input size (0 = medium preset)")
	disagg := flag.Bool("disaggregated", false, "use the disaggregated 2-node topology")
	engineMode := flag.String("engine", "seq",
		"simulation engine: seq (single-goroutine) or pdes (conservative parallel; byte-identical results)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	verbose := flag.Bool("v", false, "print message-type breakdown")
	serve := flag.String("serve", "",
		"serve /metrics, /runs, and /debug/pprof on this address while simulating (e.g. :8080)")
	serveLinger := flag.Duration("serve-linger", 0,
		"with -serve, keep serving this long after the simulations finish")
	logLevel := flag.String("log-level", "info",
		"slog level for lifecycle and request logs: debug, info, warn, or error")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wardensim: -log-level: %v\n", err)
		os.Exit(2)
	}
	if *serveLinger != 0 && *serve == "" {
		fmt.Fprintln(os.Stderr, "wardensim: -serve-linger requires -serve")
		os.Exit(2)
	}
	emode, err := machine.ParseEngineMode(*engineMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wardensim: -engine: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range pbbs.Suite {
			fmt.Printf("%-14s small=%-8d medium=%d\n", e.Name, e.Small, e.Medium)
		}
		return
	}
	entry, err := pbbs.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wardensim:", err)
		os.Exit(2)
	}
	if *size == 0 {
		*size = entry.Medium
	}
	cfg := topology.XeonGold6126(*sockets)
	if *disagg {
		cfg = topology.Disaggregated()
	}
	if *cores > 0 {
		cfg.CoresPerSocket = *cores
	}

	protos, err := protocols.Parse(*protocol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wardensim: -protocol: %v\n", err)
		os.Exit(2)
	}

	// Optional observability plane: host-side only, so the printed
	// statistics are identical with or without it.
	var probe *engine.Probe
	var registry *obs.Registry
	var shutdown func()
	if *serve != "" {
		probe = &engine.Probe{}
		registry = obs.NewRegistry()
		srv := &obs.Server{Registry: registry, Probe: probe.Sample, Log: logger}
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wardensim: -serve: %v\n", err)
			os.Exit(2)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() {
			if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Error("observability server failed", "err", err)
			}
		}()
		logger.Info("observability server listening",
			"addr", ln.Addr().String(), "endpoints", "/metrics /runs /healthz /debug/pprof/")
		shutdown = func() {
			// SIGINT/SIGTERM during the lingering window cuts it short and
			// proceeds to the graceful drain, instead of killing the process
			// with scrapes mid-flight.
			ctx, stop := obs.SignalContext(context.Background())
			defer stop()
			if *serveLinger > 0 {
				logger.Info("simulations done; lingering for late scrapes", "linger", *serveLinger)
				obs.Linger(ctx, *serveLinger)
			}
			obs.Drain(hs, 5*time.Second, logger)
		}
	}

	results := make([]bench.Result, 0, len(protos))
	for _, p := range protos {
		fmt.Fprintf(os.Stderr, "... simulating %s/%v on %s (size %d)\n", entry.Name, p, cfg.Name, *size)
		var run *obs.Run
		if registry != nil {
			run = registry.NewRun("simulation", fmt.Sprintf("%s/%v/%s", entry.Name, p, cfg.Name),
				map[string]string{"benchmark": entry.Name, "protocol": p.String(), "machine": cfg.Name,
					"size": strconv.Itoa(*size)})
			run.Start()
		}
		res, err := bench.Run(bench.Spec{Config: cfg, Protocol: p, Entry: entry, Size: *size, Opts: hlpl.DefaultOptions()},
			bench.Instruments{Engine: emode, Probe: probe})
		if run != nil {
			run.SetCounter("instructions", res.Counters.Instructions)
			run.SetCounter("messages", res.Counters.TotalMsgs())
			run.SetCounter("intersocket_flits", res.Counters.IntersocketFlits)
			run.Finish(res.Cycles, err)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wardensim:", err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	defer func() {
		if shutdown != nil {
			shutdown()
		}
	}()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric")
	for _, r := range results {
		fmt.Fprintf(tw, "\t%v", r.Protocol)
	}
	fmt.Fprintln(tw)
	row := func(label string, f func(bench.Result) string) {
		fmt.Fprintf(tw, "%s", label)
		for _, r := range results {
			fmt.Fprintf(tw, "\t%s", f(r))
		}
		fmt.Fprintln(tw)
	}
	row("cycles", func(r bench.Result) string { return fmt.Sprintf("%d", r.Cycles) })
	row("instructions", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.Instructions) })
	row("IPC", func(r bench.Result) string { return fmt.Sprintf("%.3f", r.IPC()) })
	row("loads", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.Loads) })
	row("stores", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.Stores) })
	row("atomics", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.Atomics) })
	row("L1 hit rate", func(r bench.Result) string {
		if r.Counters.L1Accesses == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(r.Counters.L1Hits)/float64(r.Counters.L1Accesses))
	})
	row("dir accesses", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.DirAccesses) })
	row("DRAM accesses", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.DRAMAccesses) })
	row("invalidations", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.Invalidations) })
	row("downgrades", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.Downgrades) })
	row("inv+dg per kilo-instr", func(r bench.Result) string { return fmt.Sprintf("%.2f", r.Counters.InvDowngradesPerKiloInstr()) })
	row("total messages", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.TotalMsgs()) })
	row("intersocket flits", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.IntersocketFlits) })
	row("WARD accesses", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.WardAccesses) })
	row("WARD access share", func(r bench.Result) string {
		memOps := r.Counters.Loads + r.Counters.Stores
		if memOps == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(r.Counters.WardAccesses)/float64(memOps))
	})
	row("region adds/removes", func(r bench.Result) string {
		return fmt.Sprintf("%d/%d", r.Counters.RegionAdds, r.Counters.RegionRemoves)
	})
	row("reconciled blocks", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.ReconciledBlocks) })
	row("false/true share merges", func(r bench.Result) string {
		return fmt.Sprintf("%d/%d", r.Counters.FalseShareMerges, r.Counters.TrueShareMerges)
	})
	row("store-buffer stalls", func(r bench.Result) string { return fmt.Sprintf("%d", r.Counters.StoreBufferStalls) })
	row("energy total (mJ)", func(r bench.Result) string { return fmt.Sprintf("%.3f", r.Energy.Total*1e3) })
	row("energy interconnect (mJ)", func(r bench.Result) string { return fmt.Sprintf("%.3f", r.Energy.Interconnect*1e3) })
	tw.Flush()

	if len(results) == 2 {
		// Pairwise footer: first protocol is the baseline, second the
		// subject (the default "mesi,warden" preserves the old reading).
		c := bench.Comparison{Name: entry.Name, MESI: results[0], WARDen: results[1]}
		fmt.Printf("\nspeedup %.3fx, interconnect savings %.1f%%, total energy savings %.1f%%, IPC %+.1f%%\n",
			c.Speedup(), c.InterconnectSavings(), c.TotalEnergySavings(), c.IPCImprovement())
	}
	if *verbose {
		fmt.Println("\nmessages by type:")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "type")
		for _, r := range results {
			fmt.Fprintf(tw, "\t%v\t(x-socket)", r.Protocol)
		}
		fmt.Fprintln(tw)
		for t := 0; t < stats.NumMsgTypes; t++ {
			fmt.Fprintf(tw, "%v", stats.MsgType(t))
			for _, r := range results {
				fmt.Fprintf(tw, "\t%d\t%d", r.Counters.Msgs[t], r.Counters.IntersocketMsgs[t])
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}
