package main

// Measurement helpers shared by the workloads: latency statistics, process
// CPU and memory counters, and the in-memory span recorder of traced runs.

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is the record of one timed window of ops, cut into equal time
// stretches.
type window struct {
	lats      []float64 // per-op latency, ms
	ok        []bool    // per-op success
	attempted int
	failed    int
	stretches []stretch
	// Runtime allocation and GC deltas over the window.
	alloc, pauseNs uint64
	gcs            uint32

	// waitCPU is the CPU time, in ns, the load generator spent waiting for
	// due times; it is not the program's, so stretches leave it out.
	waitCPU atomic.Int64

	lastT   time.Time
	lastCPU time.Duration
	lastOps int64
}

// stretch is what one time stretch of a window completed and cost.
type stretch struct {
	ops int64
	dur time.Duration
	cpu time.Duration // process user+system CPU time, less waitCPU
}

// cut closes the current stretch, done being the number of ops completed
// since the window started.
func (w *window) cut(done int64) {
	now, c := time.Now(), cpuTime()-time.Duration(w.waitCPU.Load())
	w.stretches = append(w.stretches, stretch{ops: done - w.lastOps, dur: now.Sub(w.lastT), cpu: c - w.lastCPU})
	w.lastT, w.lastCPU, w.lastOps = now, c, done
}

// timed runs fn as one timed window: a GC first, so garbage from set-up or
// an earlier window is not collected on this window's clock, then the
// allocation and GC deltas around it. fn cuts the window into stretches.
func timed(fn func(w *window)) *window {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := &window{lastT: time.Now(), lastCPU: cpuTime()}
	fn(w)
	runtime.ReadMemStats(&m1)
	w.alloc = m1.TotalAlloc - m0.TotalAlloc
	w.gcs = m1.NumGC - m0.NumGC
	w.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return w
}

// closedLoop runs op back to back, one client, until d has passed. op
// returns false for a failed op; its latency still counts.
func closedLoop(d time.Duration, op func(i int) bool) *window {
	return timed(func(w *window) {
		start := time.Now()
		for i := 0; time.Since(start) < d; i++ {
			t0 := time.Now()
			ok := op(i)
			w.lats = append(w.lats, ms(time.Since(t0)))
			w.ok = append(w.ok, ok)
			w.attempted++
			if !ok {
				w.failed++
			}
			if time.Since(start) >= time.Duration(len(w.stretches)+1)*d/chunks {
				w.cut(int64(i + 1))
			}
		}
	})
}

// chunks is how many stretches a window is cut into (see endToEnd).
const chunks = 10

// endToEnd computes the latency and throughput metrics every workload
// reports. tail is the workload's fixed tail quantile and limit its latency
// limit; a failed op counts as a miss. Each metric is the median of its
// values over the window's stretches (equal time stretches for throughput
// and CPU, equal op-count stretches for latency), so one burst of
// interference on a shared machine moves one stretch, not the result. The
// tail is taken over the whole window instead when a stretch would keep
// fewer than 10 samples beyond it.
func endToEnd(w *window, tail, limit float64) []metric {
	within := 0
	for i, l := range w.lats {
		if w.ok[i] && l <= limit {
			within++
		}
	}
	var p50s, tails []float64
	for c := 0; c < chunks; c++ {
		part := w.lats[c*len(w.lats)/chunks : (c+1)*len(w.lats)/chunks]
		p50s = append(p50s, median(part))
		tails = append(tails, percentile(part, tail))
	}
	tailV := median(tails)
	if float64(len(w.lats)/chunks)*(1-tail) < 10 {
		tailV = percentile(w.lats, tail)
	}
	var rates, cpus []float64
	for _, s := range w.stretches {
		if s.ops > 0 {
			rates = append(rates, float64(s.ops)/s.dur.Seconds())
			cpus = append(cpus, ms(s.cpu)/float64(s.ops))
		}
	}
	n := float64(w.attempted)
	return []metric{
		{"ops_per_s", "1/s", median(rates)},
		{"cpu_ms_per_op", "ms", median(cpus)},
		{"op_p50_ms", "ms", median(p50s)},
		{"op_tail_ms", "ms", tailV},
		{"within_limit_ratio", "ratio", float64(within) / n},
	}
}

// runtimeMetrics reports the Go runtime's allocation and GC work per op.
func runtimeMetrics(w *window) []metric {
	n := float64(w.attempted)
	return []metric{
		{"runtime.alloc_mb_per_op", "MB", float64(w.alloc) / (1 << 20) / n},
		{"runtime.gc_cycles_per_op", "count", float64(w.gcs) / n},
		{"runtime.gc_pause_ms_per_op", "ms", float64(w.pauseNs) / 1e6 / n},
	}
}

// medianSetup runs the set-up reps times and returns the median duration in
// seconds. Before each repetition drop releases the previous repetition's
// state and a GC collects it, so neither its garbage nor its live heap is
// carried into the next repetition's clock or the peak RSS.
func medianSetup(reps int, drop func(), setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		drop()
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// span is one traced interval. Spans of one op share Op; Parent indexes the
// span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer counts in memory; write dumps them when
// the run ends. A nil *tracer records nothing, so untraced code paths call
// it unconditionally.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
	ops    int
}

// newOp returns an op id no earlier call returned.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do wraps fn in a span.
func (t *tracer) do(name string, op, parent int, fn func()) {
	i := t.begin(name, op, parent)
	fn()
	t.end(i)
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTime returns, per span name, the summed self time (duration minus the
// part covered by child spans) and the number of distinct ops that
// recorded the name.
func (t *tracer) selfTime() (map[string]time.Duration, map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	ops := map[string]map[int]bool{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		if ops[s.Name] == nil {
			ops[s.Name] = map[int]bool{}
		}
		ops[s.Name][s.Op] = true
	}
	n := map[string]int{}
	for k, v := range ops {
		n[k] = len(v)
	}
	return self, n
}

// selfMS returns the mean self time per op of the named span, in ms.
func (t *tracer) selfMS(name string) float64 {
	self, n := t.selfTime()
	if n[name] == 0 {
		return math.NaN()
	}
	return ms(self[name]) / float64(n[name])
}

// write dumps the spans and counts as JSON.
func (t *tracer) write(path string, env map[string]any) error {
	b, err := json.Marshal(map[string]any{"env": env, "spans": t.spans, "counts": t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetrics is every per-layer metric a traced run reports, in report
// order. A layer that does no work on a workload reports 0 there.
var layerMetrics = []struct{ name, unit string }{
	{"csvio.load_ms", "ms"},
	{"instcmp.prepare_ms", "ms"},
	{"instcmp.normalize_ms", "ms"},
	{"instcmp.explain_ms", "ms"},
	{"match.env_build_ms", "ms"},
	{"match.pair_attempts_per_op", "count"},
	{"match.pair_reject_ratio", "ratio"},
	{"signature.run_ms", "ms"},
	{"signature.scan_ms", "ms"},
	{"signature.complete_ms", "ms"},
	{"signature.sig_match_share", "ratio"},
	{"signature.parallel_blocks_per_op", "count"},
	{"exact.run_ms", "ms"},
	{"exact.nodes_per_op", "count"},
	{"exact.prune_ratio", "ratio"},
	{"exact.warm_optimal_ratio", "ratio"},
	{"exact.stopped_per_op", "ratio"},
	{"score.evals_per_op", "count"},
	{"lakeindex.sketch_ms", "ms"},
	{"lakeindex.probe_ms", "ms"},
	{"lakeindex.probed_per_op", "count"},
	{"lakeindex.widened_ratio", "ratio"},
	{"lakeindex.add_ms", "ms"},
	{"lakeindex.remove_ms", "ms"},
	{"lake.rank_ms", "ms"},
	{"lake.shortlist_size", "count"},
	{"lake.candidate_compare_ms", "ms"},
	{"lake.topk_yield", "ratio"},
	{"serve.handle_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.queue_waits_per_op", "count"},
	{"serve.register_ms", "ms"},
	{"serve.response_kb", "KiB"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// layerReport orders the per-layer values a traced run measured.
func layerReport(vals map[string]float64) []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, l := range layerMetrics {
		v := vals[l.name]
		if math.IsNaN(v) {
			v = 0
		}
		out = append(out, metric{l.name, l.unit, v})
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
