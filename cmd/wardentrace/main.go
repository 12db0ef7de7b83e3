// Command wardentrace records and replays textual memory traces (see
// internal/trace for the full grammar), closing the record→replay loop:
// a pbbs benchmark recorded with -record replays to the exact same cycle
// count and counters.
//
//	wardentrace -protocol mesi,warden path/to/trace.txt
//	echo '0 W 0x1000 8 7' | wardentrace -
//	wardentrace -record primes -protocol warden -o primes.trace
//	wardentrace -protocol warden -check primes.trace
//
// Traces and JSONL event logs may be gzip-compressed: writing to a path
// ending in .gz compresses, and reading sniffs the gzip magic bytes, so
// `-o primes.trace.gz` round-trips through `wardentrace primes.trace.gz`
// (any name works — detection is content-based).
//
// Trace lines are "<thread> <kind> <args...>", one event per line:
//
//	R <addr> <size>              read (1..4096 bytes)
//	W <addr> <size> <value>     write; size 9..4096 takes a hex payload
//	A <addr> <size> <delta>     atomic fetch-add
//	X <addr> <size> <old> <new> atomic compare-and-swap
//	C <cycles>                  compute for N cycles
//	F                           full fence
//	B <name> <lo> <hi>          begin WARD region (name must not be open)
//	E <name>                    end region; "E -" ends the null region
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"warden/internal/bench"
	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/pbbs"
	"warden/internal/protocols"
	"warden/internal/topology"
	"warden/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wardentrace:", err)
	os.Exit(1)
}

// usageErr reports a bad flag combination and exits 2 before any output is
// produced.
func usageErr(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "wardentrace: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	protocol := flag.String("protocol", "mesi,warden", protocols.Usage())
	sockets := flag.Int("sockets", 1, "socket count")
	cores := flag.Int("cores", 0, "cores per socket (0 = Table 2 default)")
	detect := flag.Bool("detect", false, "enable entanglement detection (WARDen)")
	record := flag.String("record", "", "record a pbbs benchmark run instead of replaying a trace")
	recordSize := flag.String("record-size", "small", "input size for -record: small or medium")
	out := flag.String("o", "", "with -record, write the textual trace here (default stdout)")
	jsonl := flag.String("jsonl", "", "also write the full event stream (both layers) as JSONL")
	check := flag.Bool("check", false, "run the coherence invariant checker during replay")
	flag.Parse()

	protos, err := protocols.Parse(*protocol)
	if err != nil {
		usageErr("-protocol: %v", err)
	}
	// Validate the machine shape before any simulation or output: a bad
	// -sockets/-cores value must be a one-line diagnostic and exit 2, not a
	// panic or a partial table.
	if *sockets < 1 {
		usageErr("-sockets must be positive, got %d", *sockets)
	}
	if *cores < 0 {
		usageErr("-cores must be non-negative (0 = Table 2 default), got %d", *cores)
	}
	cfg := topology.XeonGold6126(*sockets)
	if *cores > 0 {
		cfg.CoresPerSocket = *cores
	}
	if err := cfg.Validate(); err != nil {
		usageErr("%v", err)
	}

	if *record != "" {
		if len(protos) != 1 {
			usageErr("-record needs a single -protocol (e.g. mesi or warden)")
		}
		if flag.NArg() != 0 {
			usageErr("-record runs a benchmark; unexpected trace argument %q", flag.Arg(0))
		}
		runRecord(cfg, protos[0], *record, *recordSize, *out, *jsonl)
		return
	}

	if *out != "" {
		usageErr("-o is only meaningful with -record")
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wardentrace [flags] <trace-file|->")
		fmt.Fprintln(os.Stderr, "       wardentrace -record <benchmark> -protocol <name> [-o trace] [-jsonl events]")
		os.Exit(2)
	}
	// trace.Open sniffs the gzip magic, so plain and .gz traces (and gzip
	// piped through stdin) all replay transparently.
	in, err := trace.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	tr, err := trace.Parse(in)
	if err != nil {
		fatal(err)
	}

	var jsonlW io.WriteCloser
	if *jsonl != "" {
		if len(protos) != 1 {
			fmt.Fprintln(os.Stderr, "wardentrace: -jsonl needs a single -protocol (mesi or warden)")
			os.Exit(2)
		}
		jsonlW, err = trace.Create(*jsonl)
		if err != nil {
			fatal(err)
		}
		defer jsonlW.Close()
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\tcycles\tinstructions\tinvalidations\tdowngrades\tward accesses\tmessages")
	for _, p := range protos {
		m := machine.New(cfg, p)
		if *detect {
			m.System().SetEntanglementDetection(true)
		}
		var sinks []core.Sink
		var chk *core.Checker
		if *check {
			chk = core.NewChecker(m.System())
			sinks = append(sinks, chk)
		}
		var rec *trace.Recorder
		if jsonlW != nil {
			rec = trace.NewRecorder(nil, jsonlW)
			sinks = append(sinks, rec)
		}
		if len(sinks) > 0 {
			m.System().SetSink(core.Sinks(sinks...))
		}
		res, err := trace.Replay(tr, m)
		if err != nil {
			fatal(err)
		}
		if chk != nil {
			if err := chk.Final(); err != nil {
				fatal(fmt.Errorf("%v: invariant violation: %w", p, err))
			}
		}
		if rec != nil {
			if err := rec.Err(); err != nil {
				fatal(err)
			}
		}
		c := m.Counters()
		fmt.Fprintf(tw, "%v\t%d\t%d\t%d\t%d\t%d\t%d\n",
			p, res.Cycles, c.Instructions, c.Invalidations, c.Downgrades,
			c.WardAccesses, c.TotalMsgs())
		if *detect && c.EntanglementViolations > 0 {
			tw.Flush()
			fmt.Printf("%d entanglement violations; first:\n", c.EntanglementViolations)
			for _, v := range m.System().Violations() {
				fmt.Println("  ", v)
			}
		}
		if chk != nil {
			tw.Flush()
			fmt.Printf("invariant checker: %d events, no violations\n", chk.Events())
		}
	}
	tw.Flush()
	fmt.Printf("(%d events, %d threads)\n", tr.Events, tr.MaxThread()+1)
}

// runRecord executes a pbbs benchmark with the trace recorder attached and
// writes the instruction-level textual trace (replayable by this command)
// and, optionally, the full two-layer event stream as JSONL.
func runRecord(cfg topology.Config, proto core.Protocol, name, size, out, jsonl string) {
	e, err := pbbs.ByName(name)
	if err != nil {
		usageErr("%v", err)
	}
	var n int
	switch size {
	case "small":
		n = e.Small
	case "medium":
		n = e.Medium
	default:
		usageErr("unknown -record-size %q (want small or medium)", size)
	}

	var textW io.Writer = os.Stdout
	if out != "" {
		f, err := trace.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		textW = f
	}
	var jsonlW io.Writer
	if jsonl != "" {
		f, err := trace.Create(jsonl)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		jsonlW = f
	}

	rec := trace.NewRecorder(textW, jsonlW)
	res, err := bench.Run(bench.Spec{Config: cfg, Protocol: proto, Entry: e, Size: n, Opts: hlpl.DefaultOptions()},
		bench.Instruments{Sink: func(*machine.Machine) core.Sink { return rec }})
	if err != nil {
		fatal(err)
	}
	if err := rec.Err(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "recorded %s/%v: %d cycles, %d instructions, %d messages\n",
		name, proto, res.Cycles, res.Counters.Instructions, res.Counters.TotalMsgs())
}
