package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	hoard "hoardgo"
)

// inputLen is the length of each worker's precomputed op stream; a run
// longer than that cycles through it again.
const inputLen = 1 << 20

// workerRand returns the input generator of worker i under seed.
func workerRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1009 + int64(i)*7919 + 1))
}

// --- warm-churn and size-cycle -------------------------------------------

// ringChurn keeps a private ring of live blocks per worker. Op i frees ring
// entry idx[i] and allocates a block of sizes[i] in its place, so every
// free is local to the worker's heap.
type ringChurn struct {
	idx   [][]uint16 // per worker: ring entry each op replaces
	sizes [][]uint16 // per worker: size each op allocates
	init  [][]uint16 // per worker: prefill sizes, one per ring entry
	rings [][]block
}

const (
	warmRing = 4096
	warmMin  = 8
	warmMax  = 2048
	warmMean = 256.0
)

// newWarmChurn: a large ring, a random entry replaced by each op, and
// exponential sizes, so the lock-free warm path carries the load.
func newWarmChurn(seed int64, workers int) *ringChurn {
	wl := &ringChurn{}
	for i := 0; i < workers; i++ {
		r := workerRand(seed, i)
		idx, sizes, init := make([]uint16, inputLen), make([]uint16, inputLen), make([]uint16, warmRing)
		for j := range idx {
			idx[j] = uint16(r.Intn(warmRing))
			sizes[j] = uint16(expSize(r, warmMin, warmMax, warmMean))
		}
		for j := range init {
			init[j] = uint16(expSize(r, warmMin, warmMax, warmMean))
		}
		wl.add(idx, sizes, init)
	}
	return wl
}

// newSizeCycle: a one-block ring while each op moves to the next size step,
// so every free empties the superblock it lands in and every malloc needs a
// superblock of another class: the heap reformats an empty one or trades
// one through the global heap. Every worker sweeps the steps in the same
// order; the seed only jitters sizes within a step.
func newSizeCycle(seed int64, workers int) *ringChurn {
	steps := cycleSteps()
	wl := &ringChurn{}
	for i := 0; i < workers; i++ {
		r := workerRand(seed, i)
		sizes := make([]uint16, inputLen)
		for j := range sizes {
			k := j % len(steps)
			lo := warmMin
			if k > 0 {
				lo = steps[k-1] + 1
			}
			sizes[j] = uint16(lo + r.Intn(steps[k]-lo+1))
		}
		wl.add(make([]uint16, inputLen), sizes, []uint16{sizes[inputLen-1]})
	}
	return wl
}

// cycleSteps are geometric size steps (ratio 1.2, the default class
// spacing) from 8 to 2048 bytes.
func cycleSteps() []int {
	steps := []int{warmMin}
	for s := float64(warmMin); steps[len(steps)-1] < warmMax; {
		s *= 1.2
		v := min(int(math.Round(s)), warmMax)
		if v > steps[len(steps)-1] {
			steps = append(steps, v)
		}
	}
	return steps
}

func (wl *ringChurn) add(idx, sizes, init []uint16) {
	wl.idx = append(wl.idx, idx)
	wl.sizes = append(wl.sizes, sizes)
	wl.init = append(wl.init, init)
	wl.rings = append(wl.rings, make([]block, len(init)))
}

func (wl *ringChurn) config() hoard.Config { return hoard.Config{Backend: "sim"} }

func (wl *ringChurn) prefill(p *phase) {
	for _, w := range p.workers {
		for j, size := range wl.init[w.id] {
			wl.rings[w.id][j] = w.alloc(w.th, int(size))
		}
		w.publish()
	}
}

func (wl *ringChurn) body(p *phase, w *worker) {
	ring, idx, sizes := wl.rings[w.id], wl.idx[w.id], wl.sizes[w.id]
	for i := 0; !p.stop.Load(); {
		for k := 0; k < publishEvery; k++ {
			e := &ring[idx[i]]
			size := int(sizes[i])
			if w.tick(p) {
				w.timed(p, spanOp, w.seq+1, func() {
					w.release(w.th, *e)
					*e = w.alloc(w.th, size)
				})
			} else {
				w.release(w.th, *e)
				*e = w.alloc(w.th, size)
			}
			if i++; i == inputLen {
				i = 0
			}
		}
	}
}

func (wl *ringChurn) drain(p *phase) {
	for _, w := range p.workers {
		for j, b := range wl.rings[w.id] {
			w.release(w.th, b)
			wl.rings[w.id][j] = block{}
		}
		w.publish()
	}
}

// --- prodcons -----------------------------------------------------------

// prodCons: one producer allocates a few fixed small classes and hands the
// blocks in batches to one consumer, which verifies and frees them. Every
// free crosses heaps. The batches travel through a fixed ring, which bounds
// the blocks in flight; both sides spin rather than park when the ring is
// full or empty, so the pair stays on two CPUs instead of the scheduler
// sometimes running both on one.
type prodCons struct {
	sizes    []uint16
	ring     [pcBatches]pcBatch
	_        [64]byte
	head     atomic.Int64 // batches consumed
	_        [56]byte
	tail     atomic.Int64 // batches produced
	_        [56]byte
	done     atomic.Bool   // the producer has stopped
	consumer *hoard.Thread // the consumer's thread when one worker runs both roles
}

const (
	pcBatchLen = 64
	// pcBatches is the ring length, so at most pcBatches*pcBatchLen
	// blocks are in flight.
	pcBatches = 16
)

var pcClasses = [...]int{16, 32, 64, 128}

type pcBatch struct {
	n      int
	blocks [pcBatchLen]block
	lat    [pcBatchLen]int64 // producer-side ns of sampled ops, else -1
}

func newProdCons(seed int64, _ int) *prodCons {
	r := workerRand(seed, 0)
	wl := &prodCons{sizes: make([]uint16, inputLen)}
	for j := range wl.sizes {
		wl.sizes[j] = uint16(pcClasses[r.Intn(len(pcClasses))])
	}
	return wl
}

func (wl *prodCons) config() hoard.Config { return hoard.Config{Backend: "sim"} }

// prefill has no standing working set to build; it empties the ring. With
// one worker, the consumer's thread is registered here.
func (wl *prodCons) prefill(p *phase) {
	wl.head.Store(0)
	wl.tail.Store(0)
	wl.done.Store(false)
	wl.consumer = nil
	if len(p.workers) == 1 {
		wl.consumer = p.a.NewThread()
	}
}

func (wl *prodCons) body(p *phase, w *worker) {
	switch {
	case wl.consumer != nil:
		for !p.stop.Load() {
			b := &wl.ring[0]
			wl.produce(p, w, b)
			wl.consume(p, w, wl.consumer, b)
		}
	case w.id == 0:
		defer wl.done.Store(true)
		for !p.stop.Load() {
			t := wl.tail.Load()
			if t-wl.head.Load() == pcBatches {
				runtime.Gosched()
				continue
			}
			wl.produce(p, w, &wl.ring[t%pcBatches])
			wl.tail.Store(t + 1)
		}
	default:
		for {
			h := wl.head.Load()
			if h == wl.tail.Load() {
				if wl.done.Load() && h == wl.tail.Load() {
					return
				}
				runtime.Gosched()
				continue
			}
			wl.consume(p, w, w.th, &wl.ring[h%pcBatches])
			wl.head.Store(h + 1)
		}
	}
}

// produce fills b. Its ops are counted by the consumer, so the producer's
// op counter stays 0 and only its live bytes are published.
func (wl *prodCons) produce(p *phase, w *worker, b *pcBatch) {
	i := int(w.seq % inputLen)
	for j := 0; j < pcBatchLen; j++ {
		size := int(wl.sizes[(i+j)%inputLen])
		if (w.seq+1)%sampleEvery != 0 || !p.measuring.Load() {
			b.blocks[j] = w.alloc(w.th, size)
			b.lat[j] = -1
			continue
		}
		id := w.seq + 1
		if w.tr != nil {
			w.cur = w.tr
			start := w.tr.begin(spanProduce, id, p.t0)
			b.blocks[j] = w.alloc(w.th, size)
			b.lat[j] = w.tr.end() - start
			w.cur = nil
		} else {
			t := nowNS()
			b.blocks[j] = w.alloc(w.th, size)
			b.lat[j] = nowNS() - t
		}
	}
	b.n = pcBatchLen
	w.live.Store(w.liveLocal)
}

// consume verifies and frees every block of b through th; each freed block
// completes one op, whose latency is the producer's half plus this one.
func (wl *prodCons) consume(p *phase, w *worker, th *hoard.Thread, b *pcBatch) {
	for j := 0; j < b.n; j++ {
		w.tick(p)
		if b.lat[j] < 0 {
			w.release(th, b.blocks[j])
			continue
		}
		id := b.blocks[j].stamp >> 16
		if w.tr != nil {
			w.cur = w.tr
			start := w.tr.begin(spanConsume, id, p.t0)
			w.release(th, b.blocks[j])
			w.record(time.Duration(b.lat[j] + w.tr.end() - start))
			w.cur = nil
		} else {
			t := nowNS()
			w.release(th, b.blocks[j])
			w.record(time.Duration(b.lat[j] + nowNS() - t))
		}
	}
	b.n = 0
}

func (wl *prodCons) drain(p *phase) {
	if wl.consumer != nil {
		wl.consumer.Close()
	}
}

// --- serve --------------------------------------------------------------

// serve is the shipping server configuration: a thread cache, the
// background scavenger, and the arena backend. Workers serve requests
// against a shared slot table with scrambled-zipfian keys, and each
// worker's stream alternates between two phases. In the first, keys are set
// across the whole table. In the second, the hot set moves to the table's
// first half and the second half's keys expire (deletes at uniform keys),
// so the working set shrinks and superblocks migrate to the global heap and
// back. Phases are short next to a measured instance, so every instance
// sees the same mix.
// A set allocates the response, fills it, swaps it into its slot, and frees
// the evicted response, which another worker usually allocated.
//
// serve runs by hand but is not among BENCHMARK.json's workloads: on a
// shared 2-CPU host its throughput and latency medians moved by 20-26%
// (quartile spread over ten seeds) between runs, more than any bound the
// benchmark may set.
type serve struct {
	keys  [][]uint32
	sizes [][]uint16 // 0 marks a delete
	init  []uint16
	slots []slot
}

// slot holds one key's response. Each sits on its own cache line, so how
// the seed's hash places hot keys cannot make them share one.
type slot struct {
	v atomic.Uint64
	_ [56]byte
}

const (
	serveSlots = 1 << 14
	serveHalf  = serveSlots / 2
	serveInput = 1 << 20
	// servePhase is the length of each phase in a worker's stream.
	servePhase = 1 << 16
	serveTheta = 0.99
	serveMean  = 256.0
	// serveDeleteShare is the share of second-phase requests that expire a
	// key of the table's second half: enough to empty it well within the
	// phase.
	serveDeleteShare = 0.2
	// serveSmallMax is S/2, the largest size a superblock serves; bigger
	// responses take the large-object path.
	serveSmallMax = 4096
	serveLargeMax = 16384
	// serveLargeShare is the share of large responses: above 1 in 1000,
	// so they reach p999, and well below 1 in 100, so they stay out of
	// p99.
	serveLargeShare = 0.003
)

func serveSize(r *rand.Rand) int {
	if r.Float64() < serveLargeShare {
		return serveSmallMax + 1 + r.Intn(serveLargeMax-serveSmallMax)
	}
	return expSize(r, 16, serveSmallMax, serveMean)
}

func newServe(seed int64, workers int) *serve {
	zAll, zHalf := newZipfian(serveSlots, serveTheta), newZipfian(serveHalf, serveTheta)
	r0 := workerRand(seed, -1)
	saltAll, saltHalf := r0.Uint64(), r0.Uint64()
	wl := &serve{slots: make([]slot, serveSlots), init: make([]uint16, serveSlots)}
	for j := range wl.init {
		wl.init[j] = uint16(serveSize(r0))
	}
	for i := 0; i < workers; i++ {
		r := workerRand(seed, i)
		keys, sizes := make([]uint32, serveInput), make([]uint16, serveInput)
		for j := range keys {
			switch {
			case j/servePhase%2 == 0:
				keys[j] = uint32(scramble(zAll.next(r), saltAll, serveSlots))
			case r.Float64() < serveDeleteShare:
				keys[j] = uint32(serveHalf + r.Intn(serveHalf))
				continue
			default:
				keys[j] = uint32(scramble(zHalf.next(r), saltHalf, serveHalf))
			}
			sizes[j] = uint16(serveSize(r))
		}
		wl.keys = append(wl.keys, keys)
		wl.sizes = append(wl.sizes, sizes)
	}
	return wl
}

func (wl *serve) config() hoard.Config {
	return hoard.Config{
		Backend:             "arena",
		ThreadCacheCapacity: 64,
		Scavenge:            hoard.ScavengeConfig{Enabled: true},
	}
}

// A slot packs a block's address with 16 bits of its stamp, so a swap
// moves both at once.
func packSlot(b block) uint64 { return uint64(b.p)<<16 | (b.stamp>>16)&0xffff }

func unpackSlot(v uint64) (hoard.Ptr, uint16) { return hoard.Ptr(v >> 16), uint16(v) }

func (wl *serve) put(w *worker, k int, b block) {
	if uint64(b.p)>>48 != 0 {
		w.fail("block address does not fit a slot")
		b = block{}
	}
	v := packSlot(b)
	old := wl.slots[k].v.Swap(v)
	w.mark(spanSwap)
	if old != 0 {
		wl.evict(w, old)
	}
}

// evict checks an evicted response against its slot tag and its own stamp,
// then frees it.
func (wl *serve) evict(w *worker, v uint64) {
	p, tag := unpackSlot(v)
	u := w.th.UsableSize(p)
	w.mark(spanUsable)
	head := w.th.Bytes(p, 8)
	w.mark(spanBytes)
	stamp := binary.LittleEndian.Uint64(head)
	size := int(stamp & 0xffff)
	if uint16(stamp>>16) != tag || size < 8 || size > u {
		w.fail("evicted response: bad stamp")
		w.mark(spanBench)
		return
	}
	w.release(w.th, block{p: p, size: int32(size), usable: int32(u), stamp: stamp})
}

func (wl *serve) prefill(p *phase) {
	for k, size := range wl.init {
		w := p.workers[k%len(p.workers)]
		wl.put(w, k, w.alloc(w.th, int(size)))
	}
	for _, w := range p.workers {
		w.publish()
	}
}

func (wl *serve) body(p *phase, w *worker) {
	keys, sizes := wl.keys[w.id], wl.sizes[w.id]
	for i := 0; !p.stop.Load(); {
		for k := 0; k < publishEvery; k++ {
			key, size := int(keys[i]), int(sizes[i])
			if w.tick(p) {
				w.timed(p, spanRequest, w.seq+1, func() { wl.request(w, key, size) })
			} else {
				wl.request(w, key, size)
			}
			if i++; i == serveInput {
				i = 0
			}
		}
	}
}

// request sets key to a fresh response of size bytes, or deletes it when
// size is 0.
func (wl *serve) request(w *worker, key, size int) {
	if size == 0 {
		wl.put(w, key, block{})
		return
	}
	wl.put(w, key, w.alloc(w.th, size))
}

func (wl *serve) drain(p *phase) {
	w := p.workers[0]
	for k := range wl.slots {
		if v := wl.slots[k].v.Swap(0); v != 0 {
			wl.evict(w, v)
		}
	}
	w.publish()
}
