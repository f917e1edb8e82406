// Command e2e is the end-to-end half of the allocator benchmark. It runs
// one workload against the public hoardgo API as a closed loop of worker
// goroutines, checks every op and the allocator's state after the run, and
// prints its metrics as one JSON object on the last line of its output.
//
//	e2e -workload warm-churn -seed 1 -seconds 6 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it replays the workload untraced and then traced
// (lock counters on, spans around every public API call of the sampled
// ops) and reports the per-layer counters and span figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workers is the closed-loop client count of every two-worker phase.
const workers = 2

// instances is how many allocator instances a trace-0 run measures per
// worker count. Each instance is set up, measured, and checked on its own;
// the run reports the median over instances, so a slow or fast instance
// (memory layout, a neighbour's burst) moves no figure by itself.
const instances = 12

var workloads = map[string]func(seed int64, workers int) workload{
	"warm-churn": func(s int64, n int) workload { return newWarmChurn(s, n) },
	"size-cycle": func(s int64, n int) workload { return newSizeCycle(s, n) },
	"prodcons":   func(s int64, n int) workload { return newProdCons(s, n) },
	"serve":      func(s int64, n int) workload { return newServe(s, n) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates the outcome of every phase of one invocation.
type run struct {
	name      string
	out       output
	problems  []string
	lat       [][]int32
	tracers   []*tracer
	spansPath string
}

func main() {
	name := flag.String("workload", "", "workload: warm-churn, size-cycle, prodcons, or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 6, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to (empty: none)")
	rev := flag.String("rev", "unknown", "source revision, for provenance")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2e: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("# provenance: rev=%s nproc=%d GOMAXPROCS=%d go=%s workers=%d seed=%d\n",
		*rev, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers, *seed)

	r := &run{name: *name, spansPath: *spans, out: output{Metrics: map[string]metric{}}}
	for i := 0; i < workers; i++ {
		r.lat = append(r.lat, make([]int32, latCap))
	}
	t := time.Now()
	wl := mk(*seed, workers)
	fmt.Printf("# inputs generated in %.3fs\n", time.Since(t).Seconds())
	budget := time.Duration(*seconds * float64(time.Second))
	var err error
	if *trace == 0 {
		err = r.endToEnd(wl, mk(*seed, 1), budget)
	} else {
		for i := 0; i < workers; i++ {
			r.tracers = append(r.tracers, newTracer())
		}
		err = r.traced(wl, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	r.out.Correct = len(r.problems) == 0 && r.out.Failed == 0
	r.table()
	line, err := json.Marshal(r.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (r *run) set(name string, v float64, unit string) { r.out.Metrics[name] = metric{v, unit} }

// phase builds one allocator instance for the workload.
func (r *run) phase(wl workload, n int, traced bool) (*phase, error) {
	return newPhase(wl, n, traced, r.tracers, r.lat)
}

// endToEnd measures the end-to-end metrics with tracing off. It alternates
// two-worker and one-worker instances of the workload and reports, for
// every metric but the Go-heap bytes, the median over instances: one slow
// or fast instance (memory layout, a neighbour's burst on a shared host)
// moves no figure by itself. Latency percentiles are taken per two-worker
// instance over its sampled ops.
func (r *run) endToEnd(wl, wl1 workload, budget time.Duration) error {
	d := budget / 2 / instances
	var setups, rates, rates1, blowups []float64
	pct := make([][]float64, len(percentiles))
	var gcBytes uint64
	var ops int64
	minSamples, minBeyond := math.MaxInt, math.MaxInt
	for i := 0; i < instances; i++ {
		p, err := r.phase(wl, workers, false)
		if err != nil {
			return err
		}
		setups = append(setups, p.setup.Seconds())
		res := p.measure(wl, d, 8)
		r.count(res)
		rates = append(rates, median(res.windowRate))
		var lat []int32
		for _, w := range p.workers {
			lat = append(lat, w.lat[:min(w.nLat, latCap)]...)
		}
		slices.Sort(lat)
		for j, q := range percentiles {
			v, beyond := quantile(lat, q.q)
			pct[j] = append(pct[j], v)
			if q.q == 0.999 {
				minBeyond = min(minBeyond, beyond)
			}
		}
		minSamples = min(minSamples, len(lat))
		gcBytes += res.gcBytes
		ops += res.allOps
		st := p.a.Stats()
		blowups = append(blowups, float64(st.PeakFootprintBytes)/float64(p.peak()))
		fmt.Printf("# instance %d: %.0f ops/s, p50 %.0f ns; peak footprint %d B / benchmark peak live %d B (allocator's PeakLiveBytes %d B)\n",
			i, rates[i], pct[0][i], st.PeakFootprintBytes, p.peak(), st.PeakLiveBytes)
		r.finish(p, wl)

		p1, err := r.phase(wl1, 1, false)
		if err != nil {
			return err
		}
		res1 := p1.measure(wl1, d, 8)
		r.count(res1)
		rates1 = append(rates1, median(res1.windowRate))
		r.finish(p1, wl1)
	}
	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", median(rates), "ops/s")
	r.set("ops_per_s_1w", median(rates1), "ops/s")
	r.set("blowup", median(blowups), "ratio")
	r.set("gc_alloc_bytes_per_op", float64(gcBytes)/float64(max(ops, 1)), "B/op")
	for j, q := range percentiles {
		if q.gated {
			r.set(q.name, median(pct[j]), "ns")
		} else {
			fmt.Printf("# %s: %.1f ns (median over instances; not a gated metric)\n", q.name, median(pct[j]))
		}
	}
	fmt.Printf("# latency: 1 op in %d timed; each instance has at least %d samples, %d beyond p999\n",
		sampleEvery, minSamples, minBeyond)
	return nil
}

// percentiles are the op latency percentiles a run reports. The p999 moves
// by more than any allowed bound between runs on a shared 2-CPU host, so
// trace-0 runs only print it; the traced run records it, ungated, as
// bench.op_p999_ns.
var percentiles = []struct {
	name  string
	q     float64
	gated bool
}{{"op_p50_ns", 0.5, true}, {"op_p99_ns", 0.99, true}, {"op_p999_ns", 0.999, false}}

// count adds a measured phase's ops to the run's attempted total.
func (r *run) count(res result) { r.out.Attempted += res.ops }

// finish drains the workload, retires the threads, runs the end-of-run
// checks, and closes the allocator. It returns the footprint left after a
// forced release as a share of the peak footprint.
func (r *run) finish(p *phase, wl workload) (retained float64) {
	defer func() {
		if v := recover(); v != nil {
			r.problems = append(r.problems, fmt.Sprintf("end-of-run checks panicked: %v", v))
		}
	}()
	wl.drain(p)
	for _, w := range p.workers {
		w.th.Close()
	}
	p.a.StopScavenger()
	var mallocs, frees, live int64
	for _, w := range p.workers {
		mallocs += w.nMallocs
		frees += w.nFrees
		live += w.liveLocal
		r.out.Failed += w.nFailed
		if w.failMsg != "" {
			r.problems = append(r.problems, fmt.Sprintf("worker %d: %d failed ops, first: %s", w.id, w.nFailed, w.failMsg))
		}
	}
	st := p.a.Stats()
	check := func(ok bool, format string, args ...any) {
		if !ok {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	check(live == 0, "benchmark live bytes %d after drain", live)
	check(st.LiveBytes == 0, "Stats.LiveBytes %d after drain", st.LiveBytes)
	check(p.a.MagazineBytes() == 0, "MagazineBytes %d after Thread.Close", p.a.MagazineBytes())
	check(st.Mallocs == mallocs && st.Frees == frees,
		"Stats mallocs/frees %d/%d, benchmark counted %d/%d", st.Mallocs, st.Frees, mallocs, frees)
	if err := p.a.CheckIntegrity(); err != nil {
		check(false, "CheckIntegrity: %v", err)
	}
	check(p.a.Backend() == p.backend && st.BackendFallbacks == 0,
		"backend %q (want %q), fallbacks %d: %s", p.a.Backend(), p.backend, st.BackendFallbacks, p.a.BackendFallbackReason())
	p.a.ReleaseMemory()
	retained = float64(p.a.Stats().FootprintBytes) / float64(max(st.PeakFootprintBytes, 1))
	if err := p.a.Close(); err != nil {
		check(false, "Close: %v", err)
	}
	// Collect the instance's Go memory now, so the next instance's set-up
	// and measurement do not pay for it.
	runtime.GC()
	return retained
}

// table prints every metric by name and unit, for people.
func (r *run) table() {
	var b strings.Builder
	fmt.Fprintf(&b, "# %-28s %16s  %s\n", "metric", "value", "unit")
	for _, k := range sortedKeys(r.out.Metrics) {
		m := r.out.Metrics[k]
		fmt.Fprintf(&b, "# %-28s %16.4f  %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(&b, "# %-28s %16.6f  %s (failed %d of %d attempted)\n", "failed_frac",
		float64(r.out.Failed)/float64(max(r.out.Attempted, 1)), "ratio", r.out.Failed, r.out.Attempted)
	fmt.Print(b.String())
}
