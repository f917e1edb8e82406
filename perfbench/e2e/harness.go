package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	hoard "hoardgo"
)

const (
	// sampleEvery is the latency sampling stride: one op in sampleEvery is
	// timed, so the clock reads stay out of the throughput figure.
	sampleEvery = 32
	// publishEvery is how many ops a worker runs between publishing its
	// counters and checking the stop flag.
	publishEvery = 64
	// peakEvery is how many ops a worker runs between samples of the
	// benchmark's total live bytes.
	peakEvery = 1024
	// latCap bounds each worker's latency sample buffer; a longer run
	// overwrites the oldest samples.
	latCap = 1 << 20
)

// workload is one benchmark input: an allocator configuration, a working
// set built during set-up, a closed-loop body per worker, and a drain that
// frees whatever the workload still holds.
type workload interface {
	config() hoard.Config
	prefill(p *phase)
	body(p *phase, w *worker)
	drain(p *phase)
}

// worker is one closed-loop client. The first two fields are published to
// the coordinator; the rest are owned by the worker's goroutine. Padding at
// both ends keeps the fields a worker writes on every op off any cache line
// another worker writes.
type worker struct {
	_    [64]byte
	ops  atomic.Int64
	live atomic.Int64
	_    [48]byte

	id int
	th *hoard.Thread

	nOps, nMallocs, nFrees, nFailed int64
	liveLocal, peakLive             int64
	seq                             uint64
	sinceLive                       int
	failMsg                         string

	lat  []int32
	nLat int

	// tr is the span recorder of a traced phase; cur is tr while a
	// sampled op runs and nil otherwise.
	tr, cur *tracer

	// magPeak is the largest MagazineBytes reading a traced worker saw.
	magPeak int64
	_       [64]byte
}

// phase is one allocator instance driven by a set of workers.
type phase struct {
	a       *hoard.Allocator
	workers []*worker
	stop    atomic.Bool
	// measuring is set once the warm-up window has passed; ops before it
	// are not timed.
	measuring atomic.Bool
	backend   string
	t0        time.Time
	peakSet   int64 // benchmark live bytes right after prefill
	setup     time.Duration
}

// newPhase builds the allocator, registers the workers, and prefills the
// working set; the elapsed time of those three steps is the set-up time.
func newPhase(wl workload, nworkers int, traced bool, tr []*tracer, lat [][]int32) (*phase, error) {
	cfg := wl.config()
	cfg.Metrics = traced
	t0 := time.Now()
	a, err := hoard.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("hoard.New: %w", err)
	}
	p := &phase{a: a, backend: cfg.Backend}
	for i := 0; i < nworkers; i++ {
		w := &worker{id: i, th: a.NewThread(), lat: lat[i]}
		if traced {
			w.tr = tr[i]
		}
		p.workers = append(p.workers, w)
	}
	wl.prefill(p)
	p.setup = time.Since(t0)
	p.peakSet = p.liveSum()
	return p, nil
}

func (p *phase) liveSum() int64 {
	var s int64
	for _, w := range p.workers {
		s += w.live.Load()
	}
	return s
}

// result is what one measured phase yields. ops and windowRate exclude
// the warm-up window; allOps and gcBytes cover the whole phase, since the
// Go-heap bytes an allocator takes while its heaps grow are part of its
// cost.
type result struct {
	ops, allOps int64
	windowRate  []float64 // ops/s of each coordinator window
	gcBytes     uint64    // Go-heap bytes allocated while measuring
}

// measure runs every worker's body for d and stops them. The first of its
// nwin windows warms the instance up (caches fill, heaps grow to the
// working set) and is not measured; throughput is sampled in each later
// window.
func (p *phase) measure(wl workload, d time.Duration, nwin int) result {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					w.fail(fmt.Sprintf("worker %d panicked: %v", w.id, r))
					p.stop.Store(true)
				}
			}()
			<-start
			wl.body(p, w)
			w.publish()
		}(w)
	}
	win := d / time.Duration(nwin)
	alloc0 := heapAllocBytes()
	p.t0 = time.Now()
	close(start)
	time.Sleep(win)
	var res result
	t0, ops0 := time.Now(), p.opsSum()
	p.measuring.Store(true)
	prevT, prevOps := t0, ops0
	for i := 1; i < nwin && !p.stop.Load(); i++ {
		time.Sleep(win)
		t, ops := time.Now(), p.opsSum()
		if dt := t.Sub(prevT).Seconds(); dt > 0 {
			res.windowRate = append(res.windowRate, float64(ops-prevOps)/dt)
		}
		prevT, prevOps = t, ops
	}
	res.ops = prevOps - ops0
	p.stop.Store(true)
	wg.Wait()
	res.allOps = p.opsSum()
	res.gcBytes = heapAllocBytes() - alloc0
	return res
}

func (p *phase) opsSum() int64 {
	var s int64
	for _, w := range p.workers {
		s += w.ops.Load()
	}
	return s
}

// peak is the largest total of live usable bytes the benchmark observed.
func (p *phase) peak() int64 {
	m := p.peakSet
	for _, w := range p.workers {
		m = max(m, w.peakLive)
	}
	return m
}

// publish makes the worker's counters visible to the coordinator.
func (w *worker) publish() {
	w.ops.Store(w.nOps)
	w.live.Store(w.liveLocal)
}

// tick is called once per op by every body: it publishes counters, samples
// the total live bytes, and reports whether the op should be timed.
func (w *worker) tick(p *phase) (sampled bool) {
	w.nOps++
	if w.nOps%publishEvery == 0 {
		w.publish()
		w.sinceLive += publishEvery
		if w.sinceLive >= peakEvery {
			w.sinceLive = 0
			w.peakLive = max(w.peakLive, p.liveSum())
			if w.tr != nil && w.id == 0 {
				w.magPeak = max(w.magPeak, p.a.MagazineBytes())
			}
		}
	}
	return w.nOps%sampleEvery == 0 && p.measuring.Load()
}

// record stores one sampled op latency.
func (w *worker) record(d time.Duration) {
	ns := d.Nanoseconds()
	if ns > math.MaxInt32 {
		ns = math.MaxInt32
	}
	w.lat[w.nLat%latCap] = int32(ns)
	w.nLat++
}

func (w *worker) fail(msg string) {
	w.nFailed++
	if w.failMsg == "" {
		w.failMsg = msg
	}
}

// block is a live allocation as the benchmark tracks it.
type block struct {
	p      hoard.Ptr
	size   int32
	usable int32
	stamp  uint64
}

// alloc mallocs size bytes through th, checks the block, and writes a stamp
// at its head and tail. A nil or short block counts as a failed op.
func (w *worker) alloc(th *hoard.Thread, size int) block {
	w.seq++
	stamp := (uint64(w.id)<<40|w.seq)<<16 | uint64(size)
	p := th.Malloc(size)
	w.mark(spanMalloc)
	if p.IsNil() {
		w.fail(fmt.Sprintf("Malloc(%d) returned nil", size))
		return block{}
	}
	w.nMallocs++
	u := th.UsableSize(p)
	w.mark(spanUsable)
	if u < size {
		w.fail(fmt.Sprintf("UsableSize %d < requested %d", u, size))
	}
	w.liveLocal += int64(u)
	b := th.Bytes(p, size)
	w.mark(spanBytes)
	writeStamp(b, stamp)
	w.mark(spanBench)
	return block{p: p, size: int32(size), usable: int32(u), stamp: stamp}
}

// release verifies a block's stamp and frees it through th.
func (w *worker) release(th *hoard.Thread, b block) {
	if b.p.IsNil() {
		return
	}
	view := th.Bytes(b.p, int(b.size))
	w.mark(spanBytes)
	if !checkStamp(view, b.stamp) {
		w.fail(fmt.Sprintf("block %#x: stamp mismatch", uint64(b.p)))
	}
	w.mark(spanBench)
	th.Free(b.p)
	w.mark(spanFree)
	w.nFrees++
	w.liveLocal -= int64(b.usable)
}

// writeStamp writes stamp at the head of b and its complement at the tail
// (blocks shorter than 16 bytes carry the head only).
func writeStamp(b []byte, stamp uint64) {
	binary.LittleEndian.PutUint64(b, stamp)
	if len(b) >= 16 {
		binary.LittleEndian.PutUint64(b[len(b)-8:], ^stamp)
	}
}

func checkStamp(b []byte, stamp uint64) bool {
	if binary.LittleEndian.Uint64(b) != stamp {
		return false
	}
	return len(b) < 16 || binary.LittleEndian.Uint64(b[len(b)-8:]) == ^stamp
}

// mark closes the current span of a traced, sampled op.
func (w *worker) mark(k spanKind) {
	if w.cur != nil {
		w.cur.mark(k)
	}
}

// timed runs op as one sampled op: its latency is recorded, and in a
// traced phase its spans too, under id.
func (w *worker) timed(p *phase, root spanKind, id uint64, op func()) {
	if w.tr == nil {
		t := time.Now()
		op()
		w.record(time.Since(t))
		return
	}
	w.cur = w.tr
	start := w.tr.begin(root, id, p.t0)
	op()
	w.record(time.Duration(w.tr.end() - start))
	w.cur = nil
}
