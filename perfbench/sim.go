package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"warden/internal/attrib"
	"warden/internal/cache"
	"warden/internal/core"
	"warden/internal/engine"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/mem"
	"warden/internal/pbbs"
	"warden/internal/stats"
	"warden/internal/telemetry"
)

// result is one simulation's outcome and the host time its untraced run
// spent in RT.Run and in all, set-up, verification and result checks
// included.
type result struct {
	cycles    uint64
	ctr       stats.Counters
	run, wall time.Duration
}

// prepared is a machine with its workload's inputs loaded, ready to Run.
type prepared struct {
	w  *pbbs.Workload
	m  *machine.Machine
	rt *hlpl.RT
}

func prepare(s sim) prepared {
	w := s.entry.New(s.size)
	m := machine.New(s.cfg, s.proto)
	m.SetEngineMode(s.engine)
	if w.Prepare != nil {
		w.Prepare(m)
	}
	return prepared{w: w, m: m, rt: hlpl.New(m, hlpl.DefaultOptions())}
}

// recovered turns a panic escaping a simulation into an error.
func recovered(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// setupOnly sets s up and returns how long that took.
func setupOnly(s sim) (d time.Duration, err error) {
	defer recovered(&err)
	t0 := time.Now()
	prepare(s)
	return time.Since(t0), nil
}

// runSim is the untraced run: set up, run with the workload's sinks,
// verify, and (with sinks) reconcile and dump the attribution ledger.
func runSim(s sim) (res result, err error) {
	defer recovered(&err)
	p := prepare(s)
	var led *attrib.Ledger
	if s.sinks {
		led = attrib.New(attrib.Config{})
		p.m.System().SetSink(core.Sinks(telemetry.New(telemetry.Config{Topology: s.cfg}), led))
	}
	t1 := time.Now()
	cycles, err := p.rt.Run(p.w.Root)
	res.run = time.Since(t1)
	p.m.System().SetSink(nil)
	if err != nil {
		return res, err
	}
	if err := p.w.Verify(p.m); err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	if led != nil {
		if err := led.Reconcile(cycles); err != nil {
			return res, err
		}
		if err := led.WriteJSONL(io.Discard); err != nil {
			return res, err
		}
	}
	res.cycles, res.ctr = cycles, *p.m.Counters()
	return res, nil
}

// layers accumulates the traced run's per-layer host time and counts over
// one pass of a workload.
type layers struct {
	gen, verify, machineNew, cacheNew         time.Duration
	run, runNoop, engineReplay, coreReplay    time.Duration
	reconcile, dump, attribT, teleT, noopT    time.Duration
	machineAlloc, cacheAlloc                  uint64
	ops, replayOps, accesses, sinkEvents      uint64
	protoReplay                               map[string]time.Duration
	protoAccesses                             map[string]uint64
	l1Hits, l1Accesses, dirTxn, invDg, instrs uint64
}

func newLayers() *layers {
	return &layers{protoReplay: map[string]time.Duration{}, protoAccesses: map[string]uint64{}}
}

// timedSink times each Event call of the sink it wraps.
type timedSink struct {
	sink core.Sink
	d    time.Duration
	n    uint64
}

func (t *timedSink) Event(ev *core.Event) {
	t0 := time.Now()
	t.sink.Event(ev)
	t.d += time.Since(t0)
	t.n++
}

type noopSink struct{}

func (noopSink) Event(*core.Event) {}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// newCaches builds the machine's L1, L2 and L3 tag arrays as core.NewSystem
// does, for timing cache.New on its own.
func newCaches(s sim) []*cache.Cache {
	cfg := s.cfg
	var out []*cache.Cache
	for c := 0; c < cfg.Cores(); c++ {
		out = append(out,
			cache.New(fmt.Sprintf("L1-%d", c), cfg.L1Size, cfg.L1Assoc, cfg.BlockSize),
			cache.New(fmt.Sprintf("L2-%d", c), cfg.L2Size, cfg.L2Assoc, cfg.BlockSize))
	}
	for k := 0; k < cfg.Sockets; k++ {
		out = append(out, cache.New(fmt.Sprintf("L3-%d", k), cfg.L3SizePerSocket(), cfg.L3Assoc, cfg.BlockSize))
	}
	return out
}

// traceSim is the traced run of one simulation, under one root span. It
// runs the simulation three times — bare, with a no-op sink, and with the
// recording sink (plus the workload's sinks behind timing wrappers) — then
// replays the recording into the engine and into core on their own. Every
// run must reproduce the bare run, and both replays must reproduce it too.
func traceSim(s sim, tr *tracer, l *layers, chk *checker) (err error) {
	defer recovered(&err)
	tr.do("sim "+s.name(), func() { err = traceSimSpans(s, tr, l, chk) })
	return err
}

func traceSimSpans(s sim, tr *tracer, l *layers, chk *checker) error {
	// Every layer call starts on a freshly collected heap, so that a
	// collection triggered by one call (building a machine allocates its
	// tag arrays) does not run inside the next one's span, and the live
	// runs and the replays find the heap in the same state.
	do := func(name string, fn func()) time.Duration {
		runtime.GC()
		return tr.do(name, fn)
	}

	// The tag arrays alone, first, so that they and machine.New below
	// allocate from the same heap state.
	before := allocBytes()
	l.cacheNew += do("cache.new", func() { newCaches(s) })
	l.cacheAlloc += allocBytes() - before

	// The bare run, timed layer call by layer call.
	var p prepared
	before = allocBytes()
	l.machineNew += do("machine.new", func() {
		p.m = machine.New(s.cfg, s.proto)
		p.m.SetEngineMode(s.engine)
	})
	l.machineAlloc += allocBytes() - before
	l.gen += do("pbbs.gen", func() {
		p.w = s.entry.New(s.size)
		if p.w.Prepare != nil {
			p.w.Prepare(p.m)
		}
	})
	do("hlpl.new", func() { p.rt = hlpl.New(p.m, hlpl.DefaultOptions()) })
	probe := &engine.Probe{}
	p.m.SetProbe(probe)
	var cycles uint64
	var err error
	l.run += do("hlpl.run", func() { cycles, err = p.rt.Run(p.w.Root) })
	if err != nil {
		return err
	}
	l.verify += do("pbbs.verify", func() { err = p.w.Verify(p.m) })
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	live := *p.m.Counters()
	if err := chk.check(s, cycles, live); err != nil {
		return err
	}
	_, ops := probe.Sample()
	l.ops += ops
	l.instrs += live.Instructions
	l.l1Hits += live.L1Hits
	l.l1Accesses += live.L1Accesses
	l.dirTxn += live.DirAccesses
	l.invDg += live.Invalidations + live.Downgrades

	// sameAsBare fails a run whose result differs from the bare run's.
	sameAsBare := func(what string, p prepared, c uint64, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if c != cycles || *p.m.Counters() != live {
			return fmt.Errorf("%s: result differs from the bare run", what)
		}
		return nil
	}

	// The emit path alone: a no-op sink. It carries a probe too, so that
	// the difference from the bare run is the emit path's alone.
	do("setup.noop_sink", func() { p = prepare(s) })
	p.m.System().SetSink(noopSink{})
	p.m.SetProbe(&engine.Probe{})
	var c uint64
	l.runNoop += do("hlpl.run.noop_sink", func() { c, err = p.rt.Run(p.w.Root) })
	if err := sameAsBare("no-op sink run", p, c, err); err != nil {
		return err
	}

	// The recording run, with the workload's sinks behind timing wrappers
	// calibrated by a wrapped no-op sink.
	do("setup.record", func() { p = prepare(s) })
	recording := &recorder{recs: make([]rec, 0, ops)}
	sinks := []core.Sink{recording}
	var led *attrib.Ledger
	var noopT, attribT, teleT *timedSink
	if s.sinks {
		led = attrib.New(attrib.Config{})
		noopT = &timedSink{sink: noopSink{}}
		attribT = &timedSink{sink: led}
		teleT = &timedSink{sink: telemetry.New(telemetry.Config{Topology: s.cfg})}
		sinks = append(sinks, noopT, attribT, teleT)
	}
	p.m.System().SetSink(core.Sinks(sinks...))
	do("hlpl.run.record", func() { c, err = p.rt.Run(p.w.Root) })
	p.m.System().SetSink(nil)
	if err := sameAsBare("recording run", p, c, err); err != nil {
		return err
	}
	p = prepared{}
	if led != nil {
		l.reconcile += do("attrib.reconcile", func() { err = led.Reconcile(cycles) })
		if err != nil {
			return err
		}
		l.dump += do("attrib.dump", func() { err = led.WriteJSONL(io.Discard) })
		if err != nil {
			return err
		}
		l.noopT += noopT.d
		l.attribT += attribT.d
		l.teleT += teleT.d
		l.sinkEvents += noopT.n
	}

	// The recording sees every op but the runtime's Ctx.Host callbacks,
	// which emit no event; engine.host_ops counts those.
	er := newEngineReplay(recording, s.cfg, s.proto, s.engine)
	if er.ops > ops {
		return fmt.Errorf("engine replay: %d ops recorded, live run executed %d", er.ops, ops)
	}
	l.engineReplay += do("engine.replay", func() { err = er.run(cycles) })
	if err != nil {
		return err
	}
	l.replayOps += er.ops

	var sys *core.System
	var ctr stats.Counters
	do("core.new", func() { sys = core.NewSystem(s.cfg, s.proto, mem.New(0), &ctr) })
	var acc uint64
	d := do("core.replay", func() { acc, err = replayCore(recording, sys, &ctr) })
	if err != nil {
		return err
	}
	if memorySystemCounters(ctr) != memorySystemCounters(live) {
		return fmt.Errorf("core replay: memory-system counters differ from the live run")
	}
	proto := strings.ToLower(s.proto.String())
	l.coreReplay += d
	l.protoReplay[proto] += d
	l.protoAccesses[proto] += acc
	l.accesses += acc
	return nil
}

// metrics turns one traced pass into its per-layer metrics.
func (l *layers) metrics() map[string]float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	per := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]float64{
		"pbbs.gen_s":              sec(l.gen),
		"pbbs.verify_s":           sec(l.verify),
		"machine.new_s":           sec(l.machineNew),
		"machine.new_alloc_mb":    float64(l.machineAlloc) / 1e6,
		"cache.new_s":             sec(l.cacheNew),
		"cache.new_alloc_mb":      float64(l.cacheAlloc) / 1e6,
		"hlpl.run_s":              sec(l.run),
		"engine.ops":              float64(l.ops),
		"engine.ns_per_op":        per(l.run, l.ops),
		"engine.replay_s":         sec(l.engineReplay),
		"engine.replay_ns_per_op": per(l.engineReplay, l.replayOps),
		"core.replay_s":           sec(l.coreReplay),
		"core.accesses":           float64(l.accesses),
		"core.l1_hit_ratio":       ratio(l.l1Hits, l.l1Accesses),
		"core.dir_txn_per_kinstr": 1000 * ratio(l.dirTxn, l.instrs),
		"core.invdg_per_kinstr":   1000 * ratio(l.invDg, l.instrs),
		"engine.host_ops":         float64(l.ops - l.replayOps),
		"engine.host_est_s":       per(l.engineReplay, l.replayOps) * float64(l.ops-l.replayOps) / 1e9,
		"hlpl.self_s":             sec(l.run - l.engineReplay - l.coreReplay),
		"machine.emit_ns_per_op":  per(l.runNoop-l.run, l.ops),
		"attrib.ns_per_event":     per(l.attribT-l.noopT, l.sinkEvents),
		"telemetry.ns_per_event":  per(l.teleT-l.noopT, l.sinkEvents),
		"sink.events":             float64(l.sinkEvents),
		"attrib.reconcile_s":      sec(l.reconcile),
		"attrib.dump_s":           sec(l.dump),
	}
	for _, p := range []string{"mesi", "warden", "sisd"} {
		m["core.ns_per_access."+p] = per(l.protoReplay[p], l.protoAccesses[p])
	}
	return m
}
