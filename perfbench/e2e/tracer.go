package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// spanKind names a span. Root kinds cover a whole sampled op; child kinds
// cover one call into the public API or one stretch of the benchmark's own
// work between such calls.
type spanKind uint8

const (
	spanOp      spanKind = iota // one op (warm-churn, size-cycle)
	spanProduce                 // producer half of a prodcons op
	spanConsume                 // consumer half of a prodcons op
	spanRequest                 // one serve request
	spanMalloc                  // Thread.Malloc
	spanUsable                  // Thread.UsableSize
	spanBytes                   // Thread.Bytes
	spanFree                    // Thread.Free
	spanSwap                    // the benchmark's slot swap (serve)
	spanBench                   // the benchmark's stamp writes and checks
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "produce", "consume", "request",
	"Thread.Malloc", "Thread.UsableSize", "Thread.Bytes", "Thread.Free",
	"bench.swap", "bench.stamp",
}

const (
	// spanSampleCap bounds the per-kind duration samples kept for medians.
	spanSampleCap = 1 << 17
	// spanRecordCap bounds the full span records kept for the trace file.
	spanRecordCap = 1 << 15
)

type spanRecord struct {
	id         uint64
	kind, root spanKind
	start, end int64 // ns since the phase began
}

// tracer records the spans of one worker's sampled ops in memory. Child
// spans are contiguous: each mark closes the span that began at the
// previous mark.
type tracer struct {
	t0    time.Time
	root  spanKind
	id    uint64
	start int64
	last  int64

	sum     [numSpanKinds]int64
	count   [numSpanKinds]int64
	samples [numSpanKinds][]int32
	records []spanRecord
}

func newTracer() *tracer {
	t := &tracer{records: make([]spanRecord, 0, spanRecordCap)}
	for k := range t.samples {
		t.samples[k] = make([]int32, 0, spanSampleCap)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a root span and returns its start.
func (t *tracer) begin(root spanKind, id uint64, t0 time.Time) int64 {
	t.t0, t.root, t.id = t0, root, id
	t.start = t.now()
	t.last = t.start
	return t.start
}

func (t *tracer) mark(k spanKind) {
	n := t.now()
	t.add(k, t.last, n)
	t.last = n
}

// end closes the root span and returns its end.
func (t *tracer) end() int64 {
	n := t.now()
	t.add(t.root, t.start, n)
	return n
}

func (t *tracer) add(k spanKind, start, end int64) {
	d := end - start
	t.sum[k] += d
	t.count[k]++
	if len(t.samples[k]) < spanSampleCap {
		t.samples[k] = append(t.samples[k], int32(min(d, 1<<31-1)))
	}
	if len(t.records) < spanRecordCap {
		t.records = append(t.records, spanRecord{id: t.id, kind: k, root: t.root, start: start, end: end})
	}
}

// writeSpans writes every kept span record as one JSON object per line.
// Child spans name their root span as parent; spans of one op share id.
func writeSpans(path string, workload string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for wi, t := range tracers {
		for _, r := range t.records {
			parent := ""
			if r.kind != r.root {
				parent = spanNames[r.root]
			}
			fmt.Fprintf(bw, `{"workload":%q,"worker":%d,"id":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				workload, wi, r.id, spanNames[r.kind], parent, r.start, r.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocBytes reads the cumulative bytes allocated on the Go heap,
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
