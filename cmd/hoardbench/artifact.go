package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hoardgo/internal/experiments"
)

// stamp builds the provenance record for a simulator-options artifact
// through the shared experiments.Stamp helper (one implementation for every
// BENCH_*.json writer — see internal/experiments/provenance.go).
func stamp(schema, scale string, opts experiments.Options) experiments.Provenance {
	return experiments.Stamp(schema, scale, opts.FingerprintParts()...)
}

// artifact is the committed benchmark record (BENCH_PR3.json): the
// lock-acquisition measurement behind the batching PR's acceptance criterion
// plus the deterministic simulator runs of the key benchmarks. Everything in
// it is reproducible with `hoardbench -artifact <path>`.
type artifact struct {
	Schema     string                      `json:"schema"`
	Scale      string                      `json:"scale"`
	Provenance experiments.Provenance      `json:"provenance"`
	BatchLocks experiments.BatchLockResult `json:"batch_locks"`
	Sim        []experiments.BatchSimEntry `json:"sim"`
}

// writeArtifact runs the artifact benchmarks and writes the JSON record.
func writeArtifact(path string, opts experiments.Options, scale string, progress func(string, int)) error {
	if progress != nil {
		progress("batch-locks", 1)
	}
	art := artifact{
		Schema:     "hoardgo-bench/pr3-batching/v1",
		Scale:      scale,
		Provenance: stamp("hoardgo-bench/pr3-batching/v1", scale, opts),
		BatchLocks: experiments.MeasureBatchLocks(32, 200),
	}
	if progress != nil {
		progress("batch-sim", 8)
	}
	art.Sim = experiments.BatchSimResults(opts)
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.2f locks/malloc per-block vs %.2f batched (%.1fx fewer)\n",
		path, art.BatchLocks.PerBlock.LocksPerMalloc, art.BatchLocks.Batch.LocksPerMalloc,
		art.BatchLocks.Improvement)
	return nil
}

// footprintArtifact is the committed scavenger record (BENCH_PR5.json): the
// workload x release-mode footprint grid, the steady-state committed ratios
// behind the reclamation PR's acceptance criterion, and the batch-lock
// measurement re-run as the throughput guard. Reproducible with
// `hoardbench -footprint <path>`.
type footprintArtifact struct {
	Schema     string                       `json:"schema"`
	Scale      string                       `json:"scale"`
	Provenance experiments.Provenance       `json:"provenance"`
	Entries    []experiments.FootprintEntry `json:"entries"`
	// SteadyRatios maps "workload/mode" to that mode's steady-state
	// committed bytes over the retain-everything baseline (< 1 means the
	// policy shrank the resting footprint).
	SteadyRatios map[string]float64 `json:"steady_ratios"`
	// BatchLocks re-runs the batching PR's lock measurement with the
	// scavenger code in the tree — the ops-stay-within-noise guard.
	BatchLocks experiments.BatchLockResult `json:"batch_locks"`
}

// writeFootprint runs the footprint grid and writes the JSON record.
func writeFootprint(path string, opts experiments.Options, scale string, progress func(string, int)) error {
	art := footprintArtifact{
		Schema:       "hoardgo-bench/pr5-scavenge/v1",
		Scale:        scale,
		Provenance:   stamp("hoardgo-bench/pr5-scavenge/v1", scale, opts),
		Entries:      experiments.FootprintResults(opts, progress),
		SteadyRatios: map[string]float64{},
	}
	off := map[string]int64{}
	for _, e := range art.Entries {
		if e.Mode == "off" {
			off[e.Workload] = e.SteadyCommitted
		}
	}
	for _, e := range art.Entries {
		if base := off[e.Workload]; base > 0 && e.Mode != "off" {
			art.SteadyRatios[e.Workload+"/"+e.Mode] = float64(e.SteadyCommitted) / float64(base)
		}
	}
	if progress != nil {
		progress("batch-locks", 1)
	}
	art.BatchLocks = experiments.MeasureBatchLocks(32, 200)
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s:\n", path)
	for _, e := range art.Entries {
		fmt.Printf("  %-10s %-8s steady %8d B  (peak %d B, %d scavenges)\n",
			e.Workload, e.Mode, e.SteadyCommitted, e.PeakCommitted, e.ScavengePasses)
	}
	for k, v := range art.SteadyRatios {
		fmt.Printf("  ratio %-20s %.2f\n", k, v)
	}
	return nil
}

// tuneArtifact is the committed self-tuning record (BENCH_PR10.json): the
// A14 three-arm ablation — controller off (deliberately detuned statics),
// controller on (same bad starting knobs), and oracle (the hand-tuned static
// configuration) — on the prodcons/phaseshift/larson workload set and on the
// hoardload serving phase schedule. Reproducible with
// `hoardbench -tune <path>`; the convergence thresholds are enforced by this
// writer at every scale, after the artifact is on disk so a failing run
// still leaves the numbers to look at.
type tuneArtifact struct {
	Schema     string                      `json:"schema"`
	Scale      string                      `json:"scale"`
	Provenance experiments.Provenance      `json:"provenance"`
	Workloads  []experiments.ControlResult `json:"workloads"`
	Serving    experiments.TunedLoadResult `json:"serving"`
}

// writeTune runs the A14 ablation and writes the JSON record, then enforces
// the convergence thresholds: the tuned arm must engage, land its
// steady-state transfer traffic at the oracle arm's level (or under the
// absolute floor), keep the serving schedule inside the PR9 tail-latency
// SLOs, and not out-retain the oracle arm's resting footprint.
func writeTune(path string, opts experiments.Options, scale string, progress func(string, int)) error {
	schema := "hoardgo-bench/pr10-control/v1"
	procs := 4
	if opts.Scale == experiments.Full {
		procs = 8
	}
	art := tuneArtifact{
		Schema:     schema,
		Scale:      scale,
		Provenance: stamp(schema, scale, opts),
		Workloads:  experiments.MeasureControl(procs, opts.Scale, progress),
	}
	serving, err := experiments.MeasureTunedLoad(4, 1, opts.Scale, progress)
	if err != nil {
		return err
	}
	art.Serving = serving
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s:\n", path)
	for _, r := range art.Workloads {
		fmt.Printf("  %-10s P=%d  transfers/op detuned %.4f -> tuned %.4f (oracle %.4f), %d decisions, footprint %.2fx oracle\n",
			r.Workload, r.Procs, r.Detuned.TransfersPerOp, r.Tuned.TransfersPerOp,
			r.Oracle.TransfersPerOp, r.Tuned.Decisions, r.FootprintRatioVsOracle)
	}
	for _, ph := range art.Serving.Tuned.Phases {
		fmt.Printf("  serving %-14s tuned malloc p999 %dns, request p999 %dns\n",
			ph.Name, ph.MallocP999NS, ph.RequestP999NS)
	}
	fmt.Printf("  serving tuned: %d decisions, final footprint %d B (%.2fx oracle)\n",
		art.Serving.Tuned.Decisions, art.Serving.Tuned.FinalFootprint,
		art.Serving.FootprintRatioVsOracle)
	if err := experiments.CheckControl(art.Workloads); err != nil {
		return err
	}
	return experiments.CheckTunedLoad(art.Serving)
}

// writeMetricsTimeline runs the instrumented churn scenario behind -metrics
// and writes the timeline artifact. Any invariant-audit failure during the
// run is a hard error.
func writeMetricsTimeline(path string, scale experiments.Scale) error {
	workers, rounds := 4, 300
	if scale == experiments.Full {
		workers, rounds = 8, 2000
	}
	tl, err := experiments.CollectMetricsTimeline(workers, rounds, 2*time.Millisecond)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples, %d audits passed, final scrape %d bytes\n",
		path, len(tl.Samples), tl.AuditPasses, len(tl.Prometheus))
	return nil
}

// arenaArtifact is the committed real-memory-backend record (BENCH_PR7.json):
// the pointer→superblock resolution comparison behind the arena PR's
// acceptance criterion, the wall-clock malloc/free sweep on both backends,
// and the RSS trajectory of the churn workload under each release policy —
// with /proc/self/statm as ground truth that madvise returns pages.
// Reproducible with `hoardbench -arena <path>` on Linux amd64/arm64. Every
// row records its backend; wall-clock numbers are machine-dependent, the
// within-run ratios are what the thresholds read.
type arenaArtifact struct {
	Schema     string                             `json:"schema"`
	Scale      string                             `json:"scale"`
	Provenance experiments.Provenance             `json:"provenance"`
	Resolve    experiments.ResolveResult          `json:"resolve"`
	Throughput []experiments.ArenaThroughputEntry `json:"throughput"`
	RSS        []experiments.ArenaRSSEntry        `json:"rss"`
	// RSSRatios holds the headline fractions: "forced/peak" (forced-mode
	// final RSS over its own peak) and "scavenge/off" (paced-mode final
	// over the retain-everything final).
	RSSRatios map[string]float64 `json:"rss_ratios"`
}

// writeArena runs the A12 measurements and writes the JSON record. The
// smoke thresholds are enforced at quick scale (what make arena-smoke and
// CI run): arithmetic resolution at least 2x faster than the page table,
// forced release ending below 0.8x of its RSS peak, and the paced scavenger
// ending below the retain-everything arm.
func writeArena(path string, opts experiments.Options, scale string, progress func(string, int)) error {
	const (
		minResolveSpeedup = 2.0
		maxForcedOverPeak = 0.8
	)
	schema := "hoardgo-bench/pr7-arena/v1"
	if progress != nil {
		progress("arena-resolve", 1)
	}
	resolve, err := experiments.MeasureResolve(opts.Scale)
	if err != nil {
		return err
	}
	if progress != nil {
		progress("arena-throughput", 1)
	}
	tps, err := experiments.MeasureArenaThroughput(opts.Scale)
	if err != nil {
		return err
	}
	if progress != nil {
		progress("arena-rss", 4)
	}
	rss, err := experiments.MeasureArenaRSS(opts.Scale)
	if err != nil {
		return err
	}
	art := arenaArtifact{
		Schema:     schema,
		Scale:      scale,
		Provenance: stamp(schema, scale, opts),
		Resolve:    resolve,
		Throughput: tps,
		RSS:        rss,
		RSSRatios:  map[string]float64{},
	}
	byMode := map[string]experiments.ArenaRSSEntry{}
	for _, e := range art.RSS {
		byMode[e.Mode] = e
	}
	if f := byMode["forced"]; f.PeakDelta > 0 {
		art.RSSRatios["forced/peak"] = float64(f.FinalDelta) / float64(f.PeakDelta)
	}
	if off := byMode["off"]; off.FinalDelta > 0 {
		art.RSSRatios["scavenge/off"] = float64(byMode["scavenge"].FinalDelta) / float64(off.FinalDelta)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s:\n", path)
	for _, e := range art.Resolve.Entries {
		fmt.Printf("  resolve %-6s %.2f ns/lookup over %d spans\n", e.Backend, e.NSPerLookup, e.Spans)
	}
	fmt.Printf("  resolve speedup %.2fx (threshold %.1fx)\n", art.Resolve.Speedup, minResolveSpeedup)
	for _, e := range art.Throughput {
		fmt.Printf("  throughput %-6s P=%-2d %10.0f ops/ms\n", e.Backend, e.Procs, e.OpsPerMS)
	}
	for _, e := range art.RSS {
		fmt.Printf("  rss %-8s peak %10d B  final %10d B  (%d scavenges, %d B decommitted)\n",
			e.Mode, e.PeakDelta, e.FinalDelta, e.ScavengePasses, e.DecommittedBytes)
	}
	if art.Resolve.Speedup < minResolveSpeedup {
		return fmt.Errorf("arena: resolution speedup %.2fx, want >= %.1fx", art.Resolve.Speedup, minResolveSpeedup)
	}
	if r, ok := art.RSSRatios["forced/peak"]; !ok || r >= maxForcedOverPeak {
		return fmt.Errorf("arena: forced-release final RSS is %.2fx of peak, want < %.2f", r, maxForcedOverPeak)
	}
	if r, ok := art.RSSRatios["scavenge/off"]; !ok || r >= 1 {
		return fmt.Errorf("arena: paced scavenger final RSS is %.2fx of the retain arm, want < 1", r)
	}
	return nil
}
