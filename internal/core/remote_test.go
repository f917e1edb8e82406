package core

import (
	"math/rand"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// heapAcquires sums a CountingLockFactory's acquisitions of one lock over
// every call site.
func heapAcquires(clf *env.CountingLockFactory, lock string) int64 {
	var n int64
	for _, s := range clf.SiteStats() {
		if s.Lock == lock {
			n += s.Acquires
		}
	}
	return n
}

// superOf resolves a block to its superblock.
func superOf(t *testing.T, h *Hoard, p alloc.Ptr) *superblock.Superblock {
	t.Helper()
	sb, ok := superblock.FromPtr(h.space, p)
	if !ok {
		t.Fatalf("%#x resolves to no superblock", uint64(p))
	}
	return sb
}

// TestRemoteFastPathCounters pins the two remote counters: every cross-heap
// free counts in RemoteFrees, and only those that landed with the lock-free
// CAS count in RemoteFastFrees. Frees to a sealed superblock take the
// owner's lock instead. Either way the blocks are free at once, with no
// reconciliation step.
func TestRemoteFastPathCounters(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	producer := thread(h, 0) // heap 1
	consumer := thread(h, 1) // heap 2
	var ps []alloc.Ptr
	for i := 0; i < 50; i++ {
		ps = append(ps, h.Malloc(producer, 64))
	}
	for _, p := range ps[:30] {
		h.Free(consumer, p)
	}
	// Seal the producer's superblocks, as eviction or a heap transfer
	// would, so the rest of the frees meet the seal.
	sb := superOf(t, h, ps[0])
	sb.Seal()
	for _, p := range ps[30:] {
		h.Free(consumer, p)
	}
	sb.Unseal()
	st := h.Stats()
	if st.RemoteFrees != 50 {
		t.Fatalf("RemoteFrees = %d, want 50", st.RemoteFrees)
	}
	if st.RemoteFastFrees != 30 {
		t.Fatalf("RemoteFastFrees = %d, want 30 (the 20 sealed frees must take the lock)", st.RemoteFastFrees)
	}
	if st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after remote frees", st.LiveBytes)
	}
	var u int64
	for i := 0; i < h.NumHeaps(); i++ {
		hu, _, _ := h.HeapSnapshot(i)
		u += hu
	}
	if u != 0 {
		t.Fatalf("heap u sums to %d before any Reconcile, want 0", u)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedRemoteFreeTakesOwnerLock is the one cross-thread free protocol's
// fallback, step by step: a free from heap 1's thread that meets a sealed
// superblock owned by heap 2 takes heap 2's lock exactly once, re-checks
// ownership, and frees the block on the spot.
func TestSealedRemoteFreeTakesOwnerLock(t *testing.T) {
	clf := &env.CountingLockFactory{Inner: env.RealLockFactory{}}
	h := New(Config{Heaps: 2}, clf)
	owner := thread(h, 1) // heap 2
	freer := thread(h, 0) // heap 1
	p := h.Malloc(owner, 64)
	keep := h.Malloc(owner, 64)
	sb := superOf(t, h, p)
	if sb != superOf(t, h, keep) || sb.OwnerID() != 2 {
		t.Fatalf("setup: blocks not on one heap-2 superblock (owner %d)", sb.OwnerID())
	}
	sb.Seal()
	before, inUse, st0 := heapAcquires(clf, "hoard.heap2"), sb.InUse(), h.Stats()

	h.Free(freer, p)

	if got := heapAcquires(clf, "hoard.heap2") - before; got != 1 {
		t.Fatalf("heap 2 lock taken %d times, want 1", got)
	}
	if got := heapAcquires(clf, "hoard.heap1"); got != 0 {
		t.Fatalf("freeing thread's own heap lock taken %d times, want 0", got)
	}
	if sb.InUse() != inUse-1 {
		t.Fatalf("in use %d -> %d, want the block free at once", inUse, sb.InUse())
	}
	st := h.Stats()
	if st.RemoteFrees != st0.RemoteFrees+1 || st.RemoteFastFrees != st0.RemoteFastFrees {
		t.Fatalf("remote counters %d/%d -> %d/%d, want +1/+0",
			st0.RemoteFrees, st0.RemoteFastFrees, st.RemoteFrees, st.RemoteFastFrees)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	sb.Unseal()
	h.Free(owner, keep)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalFreeTakesNoFastPath: same-heap frees must not be counted remote.
func TestLocalFreeTakesNoFastPath(t *testing.T) {
	h := newHoard(Config{Heaps: 4})
	th := thread(h, 0)
	p := h.Malloc(th, 64)
	h.Free(th, p)
	st := h.Stats()
	if st.RemoteFrees != 0 || st.RemoteFastFrees != 0 {
		t.Fatalf("local free counted remote: %d/%d", st.RemoteFrees, st.RemoteFastFrees)
	}
}

// TestRemoteDoubleFreeDetected: a cross-thread double free panics at the
// second free itself, on the locked fallback too — the free bitmap is
// updated by every free, so no duplicate can wait for a later check.
// TestUnifiedFastFreeDoubleFree covers the lock-free path.
func TestRemoteDoubleFreeDetected(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	producer := thread(h, 0)
	consumer := thread(h, 1)
	p := h.Malloc(producer, 64)
	h.Free(consumer, p)
	superOf(t, h, p).Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("double remote free through the sealed fallback not detected")
		}
	}()
	h.Free(consumer, p)
}

// TestOwnershipMigrationStress is the ownership-change race under the
// one free protocol: producers mass-free locally so their heaps keep
// evicting (sealing) superblocks to the global heap while consumers free
// blocks of those same superblocks — through the CAS when the superblock is
// unsealed, through the owner's lock when it meets a seal. At quiescence, accounting must be exact and
// every structure consistent.
func TestOwnershipMigrationStress(t *testing.T) {
	h := newHoard(Config{Heaps: 3, EmptyFraction: 0.5, K: KNone})
	const producers, consumers = 3, 3
	const rounds = 60
	const batch = 120
	chans := make([]chan alloc.Ptr, producers)
	for i := range chans {
		chans[i] = make(chan alloc.Ptr, batch)
	}
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := thread(h, w)
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for r := 0; r < rounds; r++ {
				var keep []alloc.Ptr
				for i := 0; i < batch; i++ {
					p := h.Malloc(th, 1+rng.Intn(200))
					if i%2 == 0 {
						chans[w] <- p
					} else {
						keep = append(keep, p)
					}
				}
				// Mass local frees drive the emptiness invariant:
				// superblocks migrate to the global heap while the
				// consumer's remote frees for them are in flight.
				for _, p := range keep {
					h.Free(th, p)
				}
			}
			close(chans[w])
		}(w)
	}
	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Consumer threads map to different heaps than producers.
			th := thread(h, producers+w)
			for p := range chans[w%producers] {
				h.Free(th, p)
			}
		}(w)
	}
	wg.Wait()

	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("integrity at quiescence (pre-reconcile): %v", err)
	}
	if live := h.Stats().LiveBytes; live != 0 {
		t.Fatalf("LiveBytes = %d at quiescence", live)
	}
	h.Reconcile(&env.RealEnv{})
	var u int64
	for i := 0; i < h.NumHeaps(); i++ {
		hu, _, _ := h.HeapSnapshot(i)
		u += hu
	}
	if u != 0 {
		t.Fatalf("heaps report %d bytes in use after Reconcile of a fully-freed run", u)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestMallocReusesCrossThreadFrees: blocks a foreign thread frees into a
// heap's only superblock are on its free list at once, so the owner's next
// malloc reuses one instead of fetching new memory.
func TestMallocReusesCrossThreadFrees(t *testing.T) {
	h := newHoard(Config{Heaps: 2})
	producer := thread(h, 0)
	consumer := thread(h, 1)
	class, _ := h.Classes().ClassFor(64)
	blockSize := h.Classes().Size(class)
	perSB := h.cfg.SuperblockSize / blockSize
	var ps []alloc.Ptr
	for i := 0; i < perSB; i++ {
		ps = append(ps, h.Malloc(producer, 64))
	}
	reserves := h.Stats().OSReserves
	for _, p := range ps[:4] {
		h.Free(consumer, p)
	}
	q := h.Malloc(producer, 64)
	if got := h.Stats().OSReserves; got != reserves {
		t.Fatalf("malloc reserved from OS (%d -> %d) instead of reusing the cross-thread frees", reserves, got)
	}
	h.Free(producer, q)
	for _, p := range ps[4:] {
		h.Free(producer, p)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
