package trace

// Recorder is a core.Sink that serializes an execution-driven run back into
// the package's textual trace format (replayable via Replay) and/or a
// richer JSONL event log for offline analysis. Recording a run and
// replaying the text trace on a fresh machine with the same topology
// reproduces every architectural counter and the cycle count exactly:
// coherence behaviour depends only on the address streams and their
// deterministic interleaving, both of which the trace preserves, and store
// values are preserved too (they feed later CAS comparisons).

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"warden/internal/core"
	"warden/internal/stats"
)

// Recorder writes trace lines (text) and/or event records (jsonl) as the
// simulation runs. Either writer may be nil. Attach with
// sys.SetSink(rec) — or alongside other sinks via core.Sinks — and check
// Err once the run completes.
type Recorder struct {
	text  io.Writer
	jsonl io.Writer
	err   error

	names  map[core.RegionID]string // active region id -> trace name
	nextID int                      // next region name ordinal
	enc    *json.Encoder
}

// NewRecorder returns a Recorder writing the textual trace to text and the
// JSONL event log to jsonl (either may be nil).
func NewRecorder(text, jsonl io.Writer) *Recorder {
	r := &Recorder{text: text, jsonl: jsonl, names: make(map[core.RegionID]string)}
	if jsonl != nil {
		r.enc = json.NewEncoder(jsonl)
	}
	return r
}

// Err returns the first write or encode error, if any.
func (r *Recorder) Err() error { return r.err }

// Event implements core.Sink.
func (r *Recorder) Event(ev *core.Event) {
	if r.err != nil {
		return
	}
	if r.text != nil && ev.Kind.Instruction() && ev.Kind != core.EvDrain {
		r.writeText(ev)
	}
	if r.enc != nil {
		r.writeJSON(ev)
	}
}

func (r *Recorder) printf(format string, args ...interface{}) {
	if _, err := fmt.Fprintf(r.text, format, args...); err != nil && r.err == nil {
		r.err = err
	}
}

// writeText emits the trace line for one instruction-level event. Events
// arrive in simulated execution order, so the B line for a region always
// precedes its E line and the parser's file-order matching is exact.
func (r *Recorder) writeText(ev *core.Event) {
	switch ev.Kind {
	case core.EvLoad:
		r.printf("%d R 0x%x %d\n", ev.Thread, uint64(ev.Addr), ev.Size)
	case core.EvStore:
		if ev.Size <= 8 {
			r.printf("%d W 0x%x %d 0x%x\n", ev.Thread, uint64(ev.Addr), ev.Size, ev.Arg1)
		} else {
			r.printf("%d W 0x%x %d %s\n", ev.Thread, uint64(ev.Addr), ev.Size, hex.EncodeToString(ev.Data))
		}
	case core.EvAtomic:
		switch ev.RMW {
		case core.RMWCAS:
			r.printf("%d X 0x%x %d 0x%x 0x%x\n", ev.Thread, uint64(ev.Addr), ev.Size, ev.Arg1, ev.Arg2)
		default:
			r.printf("%d A 0x%x %d 0x%x\n", ev.Thread, uint64(ev.Addr), ev.Size, ev.Arg1)
		}
	case core.EvCompute:
		r.printf("%d C %d\n", ev.Thread, ev.Arg1)
	case core.EvFence:
		r.printf("%d F\n", ev.Thread)
	case core.EvRegionAdd:
		// Every Add Region instruction is recorded, including rejected ones
		// (MESI, or a full region table): the instruction still executed, and
		// a deterministic replay reproduces the same rejection. A rejected
		// add gets a unique name that no E line ever references; its paired
		// remove executed against the null region and records as "E -".
		name := fmt.Sprintf("r%d", r.nextID)
		r.nextID++
		if ev.RegionOK {
			r.names[ev.Region] = name
		}
		r.printf("%d B %s 0x%x 0x%x\n", ev.Thread, name, uint64(ev.Lo), uint64(ev.Hi))
	case core.EvRegionRemove:
		name, ok := r.names[ev.Region]
		if ev.Region == core.NullRegion || !ok {
			name = NullRegionName
		} else {
			delete(r.names, ev.Region)
		}
		r.printf("%d E %s\n", ev.Thread, name)
	}
}

// jsonEvent is the JSONL view of an Event: states as their short protocol
// names, sharer sets as bitmask integers, and only the non-zero counter
// deltas (as a name->count map; encoding/json sorts the keys).
type jsonEvent struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Thread int    `json:"thread"`
	Core   int    `json:"core"`
	Cycle  uint64 `json:"cycle"`
	Label  string `json:"label,omitempty"`
	Addr   uint64 `json:"addr,omitempty"`
	Block  uint64 `json:"block,omitempty"`
	Size   int    `json:"size,omitempty"`
	Mode   string `json:"mode,omitempty"`
	RMW    string `json:"rmw,omitempty"`
	Arg1   uint64 `json:"arg1,omitempty"`
	Arg2   uint64 `json:"arg2,omitempty"`
	Data   string `json:"data,omitempty"`
	Lo     uint64 `json:"lo,omitempty"`
	Hi     uint64 `json:"hi,omitempty"`
	Region uint32 `json:"region,omitempty"`
	ROK    *bool  `json:"region_ok,omitempty"`

	DirBefore string `json:"dir_before,omitempty"`
	DirAfter  string `json:"dir_after,omitempty"`
	OwnBefore *int   `json:"owner_before,omitempty"`
	OwnAfter  *int   `json:"owner_after,omitempty"`
	ShBefore  uint64 `json:"sharers_before,omitempty"`
	ShAfter   uint64 `json:"sharers_after,omitempty"`
	LineState string `json:"line_state,omitempty"`

	Latency uint64            `json:"latency,omitempty"`
	Ctrs    map[string]uint64 `json:"ctrs,omitempty"`
}

func (r *Recorder) writeJSON(ev *core.Event) {
	je := jsonEvent{
		Seq:     ev.Seq,
		Kind:    ev.Kind.String(),
		Thread:  ev.Thread,
		Core:    ev.Core,
		Cycle:   ev.Cycle,
		Label:   ev.Label,
		Addr:    uint64(ev.Addr),
		Block:   uint64(ev.Block),
		Size:    ev.Size,
		Arg1:    ev.Arg1,
		Arg2:    ev.Arg2,
		Lo:      uint64(ev.Lo),
		Hi:      uint64(ev.Hi),
		Region:  uint32(ev.Region),
		Latency: ev.Latency,
		Ctrs:    ctrMap(&ev.Ctrs),
	}
	if len(ev.Data) > 0 {
		je.Data = hex.EncodeToString(ev.Data)
	}
	switch ev.Kind {
	case core.EvLoad, core.EvStore, core.EvAtomic, core.EvTransaction:
		je.Mode = ev.Mode.String()
	}
	if ev.Kind == core.EvAtomic {
		je.RMW = ev.RMW.String()
	}
	if ev.Kind == core.EvRegionAdd {
		ok := ev.RegionOK
		je.ROK = &ok
	}
	switch ev.Kind {
	case core.EvTransaction, core.EvEvict, core.EvReconcile:
		je.DirBefore = ev.DirBefore.String()
		je.DirAfter = ev.DirAfter.String()
		ob, oa := ev.OwnerBefore, ev.OwnerAfter
		je.OwnBefore, je.OwnAfter = &ob, &oa
		je.ShBefore = uint64(ev.SharersBefore)
		je.ShAfter = uint64(ev.SharersAfter)
	}
	if ev.Kind == core.EvEvict {
		je.LineState = ev.LineState.String()
	}
	if err := r.enc.Encode(&je); err != nil && r.err == nil {
		r.err = err
	}
}

// ctrMap flattens the non-zero counter deltas into a name->count map.
func ctrMap(s *stats.Snapshot) map[string]uint64 {
	if s.IsZero() {
		return nil
	}
	m := make(map[string]uint64)
	put := func(k string, v uint64) {
		if v != 0 {
			m[k] = v
		}
	}
	put("l1_acc", s.L1Accesses)
	put("l1_hit", s.L1Hits)
	put("l2_acc", s.L2Accesses)
	put("l2_hit", s.L2Hits)
	put("l3_acc", s.L3Accesses)
	put("l3_hit", s.L3Hits)
	put("dir_acc", s.DirAccesses)
	put("dram", s.DRAMAccesses)
	put("inv", s.Invalidations)
	put("downgrade", s.Downgrades)
	put("flit_hops", s.NoCFlitHops)
	put("intersocket", s.IntersocketFlits)
	put("ward_acc", s.WardAccesses)
	put("recon_blocks", s.ReconciledBlocks)
	put("recon_sectors", s.ReconciledSectors)
	for i, n := range s.Msgs {
		put("msg_"+stats.MsgType(i).String(), n)
	}
	return m
}
