package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	hoard "hoardgo"
)

const mib = 1 << 20

// counters is one reading of the allocator's public counters.
type counters struct {
	st    hoard.Stats
	scav  hoard.ScavengerStats
	locks struct{ local, global, contended, waitNS, holdNS int64 }
	// decommits and recommits come from the WriteMetricsJSON export.
	decommits, recommits int64
}

func readCounters(a *hoard.Allocator) (counters, error) {
	c := counters{st: a.Stats(), scav: a.ScavengerStats()}
	for _, l := range a.LockStats() {
		if !strings.HasPrefix(l.Name, "hoard.heap") {
			continue
		}
		if l.Name == "hoard.heap0" {
			c.locks.global += l.Acquires
		} else {
			c.locks.local += l.Acquires
		}
		c.locks.contended += l.Contended
		c.locks.waitNS += l.WaitNS
		c.locks.holdNS += l.HoldNS
	}
	var buf bytes.Buffer
	if err := a.WriteMetricsJSON(&buf); err != nil {
		return c, fmt.Errorf("WriteMetricsJSON: %w", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return c, fmt.Errorf("parse WriteMetricsJSON: %w", err)
	}
	c.decommits = snap.Counters["decommits_total"]
	c.recommits = snap.Counters["recommits_total"]
	return c, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traced replays the workload untraced and then traced on the same seed,
// and reports the per-layer metrics of the traced replay.
func (r *run) traced(wl workload, budget time.Duration) error {
	pa, err := r.phase(wl, workers, false)
	if err != nil {
		return err
	}
	untraced := pa.measure(wl, budget/2, 12)
	r.count(untraced)
	var lat []int32
	for _, w := range pa.workers {
		lat = append(lat, w.lat[:min(w.nLat, latCap)]...)
	}
	slices.Sort(lat)
	p999, beyond := quantile(lat, 0.999)
	r.set("bench.op_p999_ns", p999, "ns")
	fmt.Printf("# bench.op_p999_ns: %.1f ns from %d samples, %d beyond it\n", p999, len(lat), beyond)
	r.finish(pa, wl)

	pb, err := r.phase(wl, workers, true)
	if err != nil {
		return err
	}
	c0, err := readCounters(pb.a)
	if err != nil {
		return err
	}
	res := pb.measure(wl, budget/2, 12)
	r.count(res)
	c1, err := readCounters(pb.a)
	if err != nil {
		return err
	}
	r.layers(pb, res, c0, c1)
	r.set("bench.trace_overhead_frac", 1-median(res.windowRate)/median(untraced.windowRate), "ratio")
	r.set("scavenge.retained_frac", r.finish(pb, wl), "ratio")
	if r.spansPath != "" {
		if err := writeSpans(r.spansPath, r.name, r.tracers); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// layers derives the per-layer metrics from the counter deltas and spans
// of a traced phase. The counters cover its warm-up too, so per-op rates
// divide by every op of the phase.
func (r *run) layers(p *phase, res result, c0, c1 counters) {
	ops := max(res.allOps, 1)
	perKop := func(d int64) float64 { return float64(d) * 1000 / float64(ops) }
	d := func(f func(c counters) int64) int64 { return f(c1) - f(c0) }

	// hoard: the public API as the spans see it.
	var sum, count [numSpanKinds]int64
	var samples [numSpanKinds][]int32
	for _, t := range r.tracers {
		for k := range sum {
			sum[k] += t.sum[k]
			count[k] += t.count[k]
			samples[k] = append(samples[k], t.samples[k]...)
		}
	}
	p50 := func(k spanKind) float64 { v, _ := quantile(sortedInt32(samples[k]), 0.5); return v }
	r.set("hoard.malloc_ns", p50(spanMalloc), "ns")
	r.set("hoard.free_ns", p50(spanFree), "ns")
	var rootNS int64
	for k := spanOp; k <= spanRequest; k++ {
		rootNS += sum[k]
	}
	r.set("hoard.alloc_share", ratio(sum[spanMalloc]+sum[spanBytes]+sum[spanFree], rootNS), "ratio")

	// tcache: magazine transfers.
	transfers := d(func(c counters) int64 { return c.st.BatchRefills + c.st.BatchFlushes })
	r.set("tcache.transfers_per_kop", perKop(transfers), "1/kop")
	r.set("tcache.blocks_per_transfer", ratio(d(func(c counters) int64 { return c.st.BatchedBlocks }), transfers), "blocks")
	var magPeak int64
	for _, w := range p.workers {
		magPeak = max(magPeak, w.magPeak)
	}
	r.set("tcache.magazine_peak_mib", float64(magPeak)/mib, "MiB")

	// core: the lock-free warm paths.
	mallocs := d(func(c counters) int64 { return c.st.Mallocs })
	frees := d(func(c counters) int64 { return c.st.Frees })
	remote := d(func(c counters) int64 { return c.st.RemoteFrees })
	r.set("core.lockfree_malloc_frac", ratio(d(func(c counters) int64 { return c.st.LockFreeMallocs }), mallocs), "ratio")
	r.set("core.lockfree_free_frac", ratio(d(func(c counters) int64 { return c.st.LockFreeFrees }), frees), "ratio")
	r.set("core.remote_free_frac", ratio(remote, frees), "ratio")
	r.set("core.remote_fast_frac", ratio(d(func(c counters) int64 { return c.st.RemoteFastFrees }), remote), "ratio")
	r.set("core.cas_retries_per_kop", perKop(d(func(c counters) int64 { return c.st.FastPathRetries })), "1/kop")

	// heap: the locked paths.
	local := d(func(c counters) int64 { return c.locks.local })
	global := d(func(c counters) int64 { return c.locks.global })
	r.set("heap.local_lock_per_kop", perKop(local), "1/kop")
	r.set("heap.global_lock_per_kop", perKop(global), "1/kop")
	r.set("heap.lock_contended_frac", ratio(d(func(c counters) int64 { return c.locks.contended }), local+global), "ratio")
	r.set("heap.lock_wait_ns_per_op", float64(d(func(c counters) int64 { return c.locks.waitNS }))/float64(ops), "ns")
	r.set("heap.lock_hold_ns_per_op", float64(d(func(c counters) int64 { return c.locks.holdNS }))/float64(ops), "ns")
	r.set("heap.superblock_moves_per_kop", perKop(d(func(c counters) int64 { return c.st.SuperblockMoves })), "1/kop")

	// vm: address space and page traffic.
	r.set("vm.peak_reserved_mib", float64(c1.st.PeakReservedBytes)/mib, "MiB")
	r.set("vm.decommits_per_kop", perKop(d(func(c counters) int64 { return c.decommits })), "1/kop")
	r.set("vm.recommits_per_kop", perKop(d(func(c counters) int64 { return c.recommits })), "1/kop")

	// scavenge: the background scavenger over the measured phase.
	r.set("scavenge.passes", float64(d(func(c counters) int64 { return c.scav.Passes })), "count")
	r.set("scavenge.backoffs", float64(d(func(c counters) int64 { return c.scav.Backoffs })), "count")
	r.set("scavenge.released_mib", float64(d(func(c counters) int64 { return c.scav.ReleasedBytes }))/mib, "MiB")
}
