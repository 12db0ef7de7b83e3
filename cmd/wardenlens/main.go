// Command wardenlens explains protocol cycle deltas exactly. It runs a
// benchmark under a subject and a baseline protocol with the attribution
// ledger attached, then decomposes the measured cycle difference into
// per-event-kind × per-address-bucket × per-phase accounts that sum to the
// delta with zero residue — any reconciliation residue is an error and a
// nonzero exit, never a warning (see DESIGN.md §14).
//
// Usage:
//
//	wardenlens -explain warden:mesi -bench all           # full suite
//	wardenlens -explain sisd:mesi -bench dedup,msort     # a subset
//	wardenlens -explain warden:mesi -bench ray -o lens.html
//	wardenlens -explain warden:mesi -bench dedup -trace-out traces
//	wardenlens -explain warden:mesi -bench dedup -block 0x1f40
//
// -o writes an HTML artifact with the same decomposition tables; -trace-out
// writes one Perfetto counter-track timeline per benchmark (cumulative
// attributed cycles per event kind over simulated time, both protocols);
// -block replays one cache block's flight-recorder timeline with the
// protocol arcs named in PROTOCOL.md vocabulary. Attribution is pure
// observation: the measured cycles are byte-identical to an unobserved
// run's (TestAttribMatchesUnobserved).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"warden/internal/attrib"
	"warden/internal/bench"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/protocols"
	"warden/internal/telemetry"
	"warden/internal/topology"
)

// sampleEvery is the counter-track sampling stride when -trace-out is set:
// one cumulative sample per this many instruction events.
const sampleEvery = 4096

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wardenlens: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	pair := flag.String("explain", "warden:mesi",
		"subject:baseline protocol pair whose cycle delta to decompose")
	benchList := flag.String("bench", "all",
		"benchmarks to explain: a comma-separated subset of the suite, or all")
	size := flag.String("size", "small", "input size class: small or medium")
	sockets := flag.Int("sockets", 2, "sockets of the simulated machine")
	engineMode := flag.String("engine", "seq",
		"simulation engine: seq or pdes (byte-identical results)")
	topN := flag.Int("top", 10, "address buckets to show per table")
	htmlOut := flag.String("o", "", "also write the decomposition as an HTML artifact to this file")
	traceDir := flag.String("trace-out", "",
		"write a Perfetto counter-track timeline per benchmark under this directory")
	blockAddr := flag.String("block", "",
		"replay this cache block's flight-recorder timeline (hex or decimal address; requires a single -bench)")
	flag.Parse()

	subject, baseline, err := protocols.ParsePair(*pair)
	if err != nil {
		fatalf(2, "-explain: %v", err)
	}
	emode, err := machine.ParseEngineMode(*engineMode)
	if err != nil {
		fatalf(2, "-engine: %v", err)
	}
	if *sockets < 1 {
		fatalf(2, "-sockets must be positive, got %d", *sockets)
	}
	var entries []pbbs.Entry
	if *benchList == "all" {
		entries = pbbs.Suite
	} else {
		for _, name := range strings.Split(*benchList, ",") {
			e, err := pbbs.ByName(strings.TrimSpace(name))
			if err != nil {
				fatalf(2, "-bench: %v", err)
			}
			entries = append(entries, e)
		}
	}
	var block uint64
	if *blockAddr != "" {
		if len(entries) != 1 {
			fatalf(2, "-block requires a single -bench, got %d", len(entries))
		}
		block, err = strconv.ParseUint(*blockAddr, 0, 64)
		if err != nil {
			fatalf(2, "-block: %v", err)
		}
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf(2, "-trace-out: %v", err)
		}
	}

	cfg := topology.XeonGold6126(*sockets)
	block &^= cfg.BlockSize - 1
	lower := func(p core.Protocol) string { return strings.ToLower(p.String()) }
	lcfg := attrib.Config{}
	if *traceDir != "" {
		lcfg.SampleEvery = sampleEvery
	}

	var sections []telemetry.AttribSection
	for _, entry := range entries {
		n := entry.Small
		switch *size {
		case "small":
		case "medium":
			n = entry.Medium
		default:
			fatalf(2, "unknown size class %q", *size)
		}

		run := func(p core.Protocol) (bench.Result, *attrib.Ledger) {
			led := attrib.New(lcfg)
			res, err := bench.Run(bench.Spec{Config: cfg, Protocol: p, Entry: entry, Size: n, Opts: hlpl.DefaultOptions()},
				bench.Instruments{Engine: emode, Sink: func(*machine.Machine) core.Sink { return led }})
			if err != nil {
				fatalf(1, "%s under %s: %v", entry.Name, lower(p), err)
			}
			return res, led
		}
		subjRes, subjLed := run(subject)
		baseRes, baseLed := run(baseline)

		ex, err := attrib.Explain(lower(subject), subjLed, subjRes.Cycles,
			lower(baseline), baseLed, baseRes.Cycles)
		if err != nil {
			// A residue means the attribution does not sum to the
			// measurement — a bug, not a caveat.
			fatalf(1, "%s: %v", entry.Name, err)
		}

		fmt.Printf("== %s (%s, %d sockets, n=%d, %s engine) ==\n",
			entry.Name, cfg.Name, *sockets, n, emode)
		if err := ex.WriteText(os.Stdout, *topN); err != nil {
			fatalf(1, "%s: %v", entry.Name, err)
		}
		fmt.Println()
		sections = append(sections, telemetry.AttribSection{Benchmark: entry.Name, Ex: ex, TopN: *topN})

		if *blockAddr != "" {
			printBlock(block, lower(subject), subjLed, lower(baseline), baseLed)
		}
		if *traceDir != "" {
			path := filepath.Join(*traceDir, entry.Name+".attrib.trace.json")
			if err := writeTrace(path, entry.Name, lower(subject), subjLed, lower(baseline), baseLed); err != nil {
				fatalf(1, "-trace-out: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wardenlens: wrote %s\n", path)
		}
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatalf(1, "-o: %v", err)
		}
		title := fmt.Sprintf("wardenlens: %s (%s)", *pair, *size)
		if err := telemetry.WriteAttribHTML(f, title, sections); err != nil {
			f.Close()
			fatalf(1, "-o: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf(1, "-o: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wardenlens: wrote %s\n", *htmlOut)
	}
}

// printBlock replays one block's flight-recorder timeline under both
// protocols, annotating each transition with its PROTOCOL.md arc.
func printBlock(block uint64, subjName string, subj *attrib.Ledger, baseName string, base *attrib.Ledger) {
	for _, side := range []struct {
		name string
		led  *attrib.Ledger
	}{{subjName, subj}, {baseName, base}} {
		fmt.Printf("-- block %#x under %s --\n", block, side.name)
		bl := side.led.Flight().Block(block)
		if bl == nil {
			fmt.Println("   no coherence activity recorded for this block")
			continue
		}
		fmt.Printf("   %d transactions, %d evictions, %d reconciles, %d invalidations, %d downgrades, sharer churn %d, final state %s\n",
			bl.Transactions, bl.Evictions, bl.Reconciles, bl.Invalidations, bl.Downgrades, bl.SharerChurn, bl.LastState)
		if bl.Dropped > 0 {
			fmt.Printf("   (ring kept the most recent %d transitions; %d older ones dropped)\n",
				len(bl.Timeline()), bl.Dropped)
		}
		for _, tr := range bl.Timeline() {
			who := fmt.Sprintf("t%d/c%d", tr.Thread, tr.Core)
			if tr.Thread < 0 {
				who = "system"
			}
			fmt.Printf("   cycle %8d  %-11s %-9s sharers %d→%d  owner %d→%d  lat %3d  %s\n",
				tr.Cycle, tr.Kind, who, tr.SharersBefore, tr.SharersAfter,
				tr.OwnerBefore, tr.OwnerAfter, tr.Latency, attrib.Annotate(tr))
		}
	}
	fmt.Println()
}

// writeTrace renders the two protocols' attribution series as Perfetto
// counter tracks in one trace_event document.
func writeTrace(path, benchName, subjName string, subj *attrib.Ledger, baseName string, base *attrib.Ledger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = telemetry.WriteCounterTrace(f, "wardenlens "+benchName, []telemetry.CounterTrack{
		{Name: subjName, TID: 0, Samples: subj.Samples()},
		{Name: baseName, TID: 1, Samples: base.Samples()},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
