package bench

// Telemetry integration for the experiment harness: when enabled on a
// Runner, every uncached simulation runs with a telemetry.Capture attached
// and writes its windowed series, phase table, sharing heatmap, and
// (optionally) a Perfetto timeline as per-run artifact files. Attaching the
// capture cannot change any measurement — Run's sink sees the run
// without perturbing it (TestTelemetryMatchesUnobserved) — so reports
// rendered from a telemetry-enabled Runner are byte-identical to a plain
// one's (TestReportsByteIdenticalWithTelemetry).

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"

	"warden/internal/core"
	"warden/internal/hlpl"
	"warden/internal/obs"
	"warden/internal/runner"
	"warden/internal/topology"
	"warden/internal/trace"
)

// TelemetryConfig enables per-run telemetry artifacts on a Runner.
type TelemetryConfig struct {
	// Dir receives the windowed/phase/heatmap dumps (created if missing).
	// Empty disables telemetry entirely.
	Dir string
	// TraceDir, when non-empty, additionally streams a Chrome
	// trace_event/Perfetto JSON timeline per run into this directory.
	TraceDir string
	// TraceGzip gzip-compresses the timeline files (suffix .trace.json.gz).
	// Readers are magic-byte transparent (trace.Open / wardenreport
	// -validate), so compressed traces replay and validate unchanged.
	TraceGzip bool
	// WindowCycles overrides the sampling window width (0 = default).
	WindowCycles uint64
	// Artifacts, when non-nil, collects every file written.
	Artifacts *runner.Artifacts
}

// SetTelemetry configures per-run telemetry artifacts for all subsequent
// (uncached) simulations. Call before the first experiment: memoized runs
// write artifacts only on their first execution.
func (r *Runner) SetTelemetry(tc TelemetryConfig) { r.tele = tc }

// artifactBase names one run's artifact files: benchmark, protocol, machine,
// and size, plus a short options fingerprint when the runtime options are
// not the paper defaults (ablations would otherwise collide).
func artifactBase(e string, proto core.Protocol, cfg topology.Config, size int, opts hlpl.Options) string {
	base := fmt.Sprintf("%s_%s_%s_%d", e, strings.ToLower(proto.String()), cfg.Name, size)
	if opts != hlpl.DefaultOptions() {
		h := fnv.New32a()
		fmt.Fprintf(h, "%+v", opts)
		base = fmt.Sprintf("%s_o%08x", base, h.Sum32())
	}
	return base
}

// createArtifact creates dir/name, making the directory as needed, and
// registers the path with the shared artifact registry (which may
// relativize it) and, when the simulation is observed, with its run
// record, so /runs/{id} lists what the run wrote. Names ending in ".gz"
// are gzip-compressed on the way out (trace.Create).
func createArtifact(arts *runner.Artifacts, dir, name string, run *obs.Run) (io.WriteCloser, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, name)
	f, err := trace.Create(path)
	if err != nil {
		return nil, "", err
	}
	stored := path
	if arts != nil {
		stored = arts.Add(path)
	}
	if run != nil {
		run.AddArtifact(stored)
	}
	return f, path, nil
}

// writeArtifact creates dir/name and writes it in one step (the non-
// streaming artifact path).
func writeArtifact(arts *runner.Artifacts, dir, name string, run *obs.Run, write func(io.Writer) error) error {
	f, path, err := createArtifact(arts, dir, name, run)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	return nil
}
