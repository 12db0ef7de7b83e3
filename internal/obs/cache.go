package obs

// CacheStats is the minimal view of a memoizing cache that the metrics
// plane exports: lookup hit/miss counters plus the live entry count. It is
// the obs-side mirror of runner.MemoStats (the bench runner's in-process
// simulation memo).
type CacheStats struct {
	Hits    uint64 // lookups satisfied by an existing entry
	Misses  uint64 // lookups that missed and had to compute (or enqueue)
	Entries int    // distinct keys currently cached
}

// CacheFamilies renders one cache's stats as the canonical three-family
// Prometheus surface: <prefix>_hits_total, <prefix>_misses_total, and
// <prefix>_entries. subject names the cache in HELP text ("Simulation
// memo"). CacheStatsFrom reads the same three families back from a scrape.
func CacheFamilies(prefix, subject string, s CacheStats) []Family {
	return []Family{
		Counter(prefix+"_hits_total",
			subject+" lookups satisfied by an existing entry.", float64(s.Hits)),
		Counter(prefix+"_misses_total",
			subject+" lookups that missed and had to compute.", float64(s.Misses)),
		Gauge(prefix+"_entries",
			"Distinct "+subject+" entries cached.", float64(s.Entries)),
	}
}
