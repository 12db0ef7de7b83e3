package stats

// Snapshot is the subset of Counters that event-stream consumers care about.
// The event layer in internal/core and internal/machine snapshots the
// counters around each instruction or coherence transaction (SnapTo, into
// a "before" record the emitter owns) and writes the difference straight
// into the emitted Event's Ctrs (Delta), so sinks see exactly which cache
// accesses, coherence damage, and interconnect traffic each event caused
// without the hot path copying a Snapshot value or maintaining any
// per-event state of its own.
type Snapshot struct {
	L1Accesses, L1Hits uint64
	L2Accesses, L2Hits uint64
	L3Accesses, L3Hits uint64
	DirAccesses        uint64
	DRAMAccesses       uint64

	Invalidations uint64
	Downgrades    uint64

	Msgs             [NumMsgTypes]uint64
	NoCFlitHops      uint64
	IntersocketFlits uint64

	WardAccesses      uint64
	ReconciledBlocks  uint64
	ReconciledSectors uint64
}

// SnapTo writes the current values of the snapshot-tracked counters into
// s. The event layer takes its "before" snapshot this way, into storage
// it owns, so no Snapshot value is built and copied per event.
func (c *Counters) SnapTo(s *Snapshot) {
	s.L1Accesses, s.L1Hits = c.L1Accesses, c.L1Hits
	s.L2Accesses, s.L2Hits = c.L2Accesses, c.L2Hits
	s.L3Accesses, s.L3Hits = c.L3Accesses, c.L3Hits
	s.DirAccesses = c.DirAccesses
	s.DRAMAccesses = c.DRAMAccesses
	s.Invalidations = c.Invalidations
	s.Downgrades = c.Downgrades
	s.Msgs = c.Msgs
	s.NoCFlitHops = c.NoCFlitHops
	s.IntersocketFlits = c.IntersocketFlits
	s.WardAccesses = c.WardAccesses
	s.ReconciledBlocks = c.ReconciledBlocks
	s.ReconciledSectors = c.ReconciledSectors
}

// Delta writes into s the component-wise difference between c's current
// values and before, which an earlier SnapTo took from c. The counters
// only ever increase, so every field is a true event count. s may be the
// Ctrs field of the event being built: the delta is written in place.
func (s *Snapshot) Delta(c *Counters, before *Snapshot) {
	s.L1Accesses, s.L1Hits = c.L1Accesses-before.L1Accesses, c.L1Hits-before.L1Hits
	s.L2Accesses, s.L2Hits = c.L2Accesses-before.L2Accesses, c.L2Hits-before.L2Hits
	s.L3Accesses, s.L3Hits = c.L3Accesses-before.L3Accesses, c.L3Hits-before.L3Hits
	s.DirAccesses = c.DirAccesses - before.DirAccesses
	s.DRAMAccesses = c.DRAMAccesses - before.DRAMAccesses
	s.Invalidations = c.Invalidations - before.Invalidations
	s.Downgrades = c.Downgrades - before.Downgrades
	for i := range s.Msgs {
		s.Msgs[i] = c.Msgs[i] - before.Msgs[i]
	}
	s.NoCFlitHops = c.NoCFlitHops - before.NoCFlitHops
	s.IntersocketFlits = c.IntersocketFlits - before.IntersocketFlits
	s.WardAccesses = c.WardAccesses - before.WardAccesses
	s.ReconciledBlocks = c.ReconciledBlocks - before.ReconciledBlocks
	s.ReconciledSectors = c.ReconciledSectors - before.ReconciledSectors
}

// TotalMsgs sums the snapshot's message counts across all types. It
// indexes s.Msgs rather than ranging over its values, which would copy
// the array on every call.
func (s *Snapshot) TotalMsgs() uint64 {
	var n uint64
	for i := range s.Msgs {
		n += s.Msgs[i]
	}
	return n
}

// IsZero reports whether the snapshot records no activity at all.
func (s *Snapshot) IsZero() bool { return *s == Snapshot{} }
