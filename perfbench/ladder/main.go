// Command ladder times each layer of the allocator's request path alone, at
// one goroutine and at two, and prints the results as one JSON object on
// the last line of its output:
//
//	ladder -seconds 4
//
// A layer's self cost is the difference between adjacent rungs. Every rung
// calls a stable entry point of its layer (Table.ClassFor, Backend.Lookup,
// the superblock pop/free pair, alloc.Allocator methods, the public Thread
// API), so an internal refactor can break a rung but not the end-to-end
// program, e2e, which is built separately.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	hoard "hoardgo"
	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/tcache"
	"hoardgo/internal/vm"
)

// goroutines is the parallel width of the _nw rungs.
const goroutines = 2

// reps is how many timed repetitions each rung runs; it reports the median.
const reps = 5

// rung builds g goroutines' worth of state for one layer and returns each
// goroutine's loop, which runs n ops and returns how many of them failed
// their check. close releases the rung's resources.
type rung struct {
	name   string
	loops  func(g int) []func(n int) int
	close  func()
	single bool // no _nw variant
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	seconds := flag.Float64("seconds", 4, "total seconds to spend timing rungs")
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ladder: -seconds must be positive")
		os.Exit(2)
	}
	rungs := buildRungs()
	variants := 0
	for _, r := range rungs {
		variants += 2
		if r.single {
			variants--
		}
	}
	perRep := time.Duration(*seconds * float64(time.Second) / float64(variants*(reps+1)))
	metrics := map[string]metric{}
	var attempted, failed int64
	for _, r := range rungs {
		for _, g := range []int{1, goroutines} {
			if g > 1 && r.single {
				continue
			}
			ns, ops, bad := timeRung(r.loops(g), perRep)
			name := r.name
			if g > 1 {
				name += "_nw"
			}
			metrics[name] = metric{ns, "ns"}
			attempted += ops
			failed += int64(bad)
			fmt.Printf("# %-32s %10.2f ns/op\n", name, ns)
		}
		if r.close != nil {
			r.close()
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladder: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// timeRung calibrates an op count that takes about perRep on one goroutine,
// then times reps runs of all loops at once and returns the median wall ns
// per op of one loop, the ops run, and the failed checks.
func timeRung(loops []func(n int) int, perRep time.Duration) (float64, int64, int) {
	n := 64
	for {
		t := time.Now()
		loops[0](n)
		if d := time.Since(t); d >= perRep/8 || n >= 1<<30 {
			n = int(float64(n) * float64(perRep) / float64(max(d, time.Microsecond)))
			break
		}
		n *= 4
	}
	n = max(n, 1)
	var samples []float64
	var ops int64
	bad := 0
	for i := 0; i < reps; i++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		start := make(chan struct{})
		for _, loop := range loops {
			wg.Add(1)
			go func(loop func(int) int) {
				defer wg.Done()
				<-start
				b := loop(n)
				mu.Lock()
				bad += b
				mu.Unlock()
			}(loop)
		}
		t := time.Now()
		close(start)
		wg.Wait()
		samples = append(samples, float64(time.Since(t).Nanoseconds())/float64(n))
		ops += int64(n * len(loops))
	}
	slices.Sort(samples)
	return samples[len(samples)/2], ops, bad
}

// requestSizes is a fixed exponential mix of request sizes, 8 to 2048 B.
func requestSizes() []int {
	r := rand.New(rand.NewSource(1))
	s := make([]int, 4096)
	for i := range s {
		s[i] = min(8+int(r.ExpFloat64()*256), 2048)
	}
	return s
}

func buildRungs() []rung {
	sizes := requestSizes()
	var rs []rung

	// sizeclass: the size-to-class lookup.
	tab := sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, superblock.DefaultSize/2)
	rs = append(rs, rung{name: "sizeclass.classfor_ns", loops: each(func(int) func(int) int {
		return func(n int) int {
			acc, bad := 0, 0
			for i := 0; i < n; i++ {
				c, ok := tab.ClassFor(sizes[i&4095])
				if !ok {
					bad++
				}
				acc += c
			}
			if acc < 0 { // keeps the lookups live
				bad++
			}
			return bad
		}
	})})

	// vm: pointer-to-span resolution on both backends.
	rs = append(rs, lookupRung("vm.lookup_ns_sim", vm.New()))
	if arena, err := vm.NewArena(vm.ArenaOptions{}); err == nil {
		rs = append(rs, lookupRung("vm.lookup_ns_arena", arena))
	} else {
		fmt.Fprintf(os.Stderr, "ladder: arena backend unavailable: %v\n", err)
		os.Exit(1)
	}

	// superblock: the packed-word pop and push on one superblock per
	// goroutine.
	space := vm.New()
	rs = append(rs, rung{name: "superblock.pair_ns", loops: each(func(g int) func(int) int {
		e := &env.RealEnv{ID: g}
		sb := superblock.New(space, superblock.DefaultSize, 3, 64)
		sb.Unseal()
		if p, ok := sb.AllocBlock(e); !ok {
			panic("superblock: carve failed")
		} else if ok, _, _ := sb.FastFree(e, p); !ok {
			panic("superblock: first free failed")
		}
		return func(n int) int {
			bad := 0
			for i := 0; i < n; i++ {
				p, ok, _ := sb.SelfRef().TryPop(e)
				if !ok {
					bad++
					continue
				}
				if ok, _, _ := sb.FastFree(e, p); !ok {
					bad++
				}
			}
			return bad
		}
	})})

	// core: the Hoard core's malloc/free pair, one thread per goroutine.
	h := core.New(core.Config{Backend: "sim"}, env.RealLockFactory{})
	rs = append(rs, pairRung("core.pair_ns", h))

	// tcache: a magazine hit over the core.
	tc := tcache.New(core.New(core.Config{Backend: "sim"}, env.RealLockFactory{}), tcache.Config{Capacity: 64})
	rs = append(rs, pairRung("tcache.pair_ns", tc))

	// hoard: the public Thread API.
	a := hoard.MustNew(hoard.Config{Backend: "sim"})
	rs = append(rs, rung{name: "hoard.pair_ns", loops: each(func(int) func(int) int {
		th := a.NewThread()
		return func(n int) int {
			bad := 0
			for i := 0; i < n; i++ {
				p := th.Malloc(64)
				if p.IsNil() {
					bad++
					continue
				}
				th.Free(p)
			}
			return bad
		}
	}), close: func() { a.Close() }})

	// Reference: what Go gives for free — a sync.Pool per size class.
	pools := make([]sync.Pool, tab.NumClasses())
	for c := range pools {
		size := tab.Size(c)
		pools[c].New = func() any { b := make([]byte, size); return &b }
	}
	rs = append(rs, rung{name: "bench.ref_syncpool_pair_ns", loops: each(func(int) func(int) int {
		return func(n int) int {
			c, _ := tab.ClassFor(64)
			for i := 0; i < n; i++ {
				b := pools[c].Get().(*[]byte)
				(*b)[0] = byte(i)
				pools[c].Put(b)
			}
			return 0
		}
	})})

	// The cost of one clock-read pair, as the end-to-end latency samples
	// pay it.
	rs = append(rs, rung{name: "bench.timer_pair_ns", single: true, loops: each(func(int) func(int) int {
		return func(n int) int {
			var acc time.Duration
			for i := 0; i < n; i++ {
				t := time.Now()
				acc += time.Since(t)
			}
			if acc < 0 { // the monotonic clock went backwards
				return 1
			}
			return 0
		}
	})})
	return rs
}

// each builds one loop per goroutine with mk.
func each(mk func(g int) func(int) int) func(int) []func(int) int {
	return func(g int) []func(int) int {
		loops := make([]func(int) int, g)
		for i := range loops {
			loops[i] = mk(i)
		}
		return loops
	}
}

// lookupRung resolves addresses inside 128 reserved superblock-sized spans
// of b in a shuffled order.
func lookupRung(name string, b vm.Backend) rung {
	spans := make([]*vm.Span, 128)
	for i := range spans {
		spans[i] = b.Reserve(superblock.DefaultSize, superblock.DefaultSize, nil)
	}
	r := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 4096)
	want := make([]*vm.Span, len(addrs))
	for i := range addrs {
		sp := spans[r.Intn(len(spans))]
		addrs[i], want[i] = sp.Base+uint64(r.Intn(sp.Len)), sp
	}
	return rung{name: name, loops: each(func(int) func(int) int {
		return func(n int) int {
			bad := 0
			for i := 0; i < n; i++ {
				if b.Lookup(addrs[i&4095]) != want[i&4095] {
					bad++
				}
			}
			return bad
		}
	}), close: func() {
		for _, sp := range spans {
			b.Release(sp)
		}
		b.Close()
	}}
}

// pairRung times a 64-byte malloc/free pair through the alloc.Allocator
// interface, one registered thread per goroutine.
func pairRung(name string, a alloc.Allocator) rung {
	return rung{name: name, loops: each(func(g int) func(int) int {
		th := a.NewThread(&env.RealEnv{ID: g})
		return func(n int) int {
			bad := 0
			for i := 0; i < n; i++ {
				p := a.Malloc(th, 64)
				if p.IsNil() {
					bad++
					continue
				}
				a.Free(th, p)
			}
			return bad
		}
	}), close: func() {
		if err := a.Space().Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ladder: %s: %v\n", name, err)
		}
	}}
}
