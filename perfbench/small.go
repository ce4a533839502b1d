package main

// serve-small: the serve.Server handler driven in process (ServeHTTP, no
// sockets) over a registry of ~3000 small Doct-shaped instances, so AlgoAuto
// picks the exact search. An open loop offers a seeded Poisson schedule at a
// fixed rate, about a ninth of capacity, and each request's latency runs
// from its due time. The mix is ~75% compare, ~10% explain, ~5% compare with
// a one-node exact budget and ~10% register+delete churn. This workload
// covers the per-pair fixed costs (JSON decode/encode, env build, interner
// clone, warm-started exact, explain) and writes to the registry and its
// lakeindex.Dynamic; preparation costs only registration here.

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"instcmp"
	"instcmp/internal/exact"
	"instcmp/internal/lakeindex"
	"instcmp/internal/match"
	"instcmp/internal/serve"
	"instcmp/internal/signature"
)

const (
	smallSetupReps = 9
	smallRate      = 500.0 // offered requests per second (README.md: why no more)
	smallLimitMS   = 10.0
	smallTail      = 0.90 // p99 moved 1.7–3.1 ms between runs of one seed (README.md)

	kindCompare = 0
	kindExplain = 1
	kindBudget  = 2
	kindChurn   = 3
)

// smallMix is the cumulative request mix: compare, explain, budgeted
// compare; the rest is register+delete churn.
var smallMix = [3]float64{0.75, 0.85, 0.90}

// recorder is a minimal http.ResponseWriter for in-process requests.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// serveOnce sends one request through the handler.
func serveOnce(h http.Handler, method, path string, body []byte) (*recorder, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	rec := &recorder{hdr: http.Header{}}
	h.ServeHTTP(rec, req)
	return rec, nil
}

// register registers every body into a fresh registry and returns the
// server's handler. In a traced run each call is a span and an op of its
// own, across set-up repetitions too.
func register(tr *tracer, reg *serve.Registry, bodies [][]byte) (http.Handler, error) {
	h := serve.New(reg, serve.Options{Workers: serveWorkers()}).Handler()
	for _, b := range bodies {
		var rec *recorder
		var err error
		tr.do("Handler.ServeHTTP /v1/instances", tr.newOp(), -1, func() { rec, err = serveOnce(h, http.MethodPost, "/v1/instances", b) })
		if err != nil {
			return nil, err
		}
		if rec.code != http.StatusCreated {
			return nil, fmt.Errorf("register: status %d: %s", rec.code, rec.body.Bytes())
		}
	}
	return h, nil
}

// replayRegistration times what registration does through the layers' entry
// points, instance by instance: prepare, sketch, add to a sketch index; then
// removes every instance again. Its sketch spans are named apart from a
// ranking's example sketch, which is the index's read path. It returns the
// prepared sides by name.
func replayRegistration(tr *tracer, bodies [][]byte) (map[string]*match.PreparedSide, error) {
	sides := map[string]*match.PreparedSide{}
	idx := lakeindex.NewDynamic()
	for i, b := range bodies {
		var req serve.RegisterRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		in, err := req.Instance.Decode()
		if err != nil {
			return nil, err
		}
		op := 2_000_000 + i
		root := tr.begin("register", op, -1)
		var side *match.PreparedSide
		tr.do("match.PrepareSide", op, root, func() { side, err = match.PrepareSide(in) })
		if err != nil {
			return nil, err
		}
		var sk *lakeindex.Sketch
		tr.do("register/lakeindex.NewSketch", op, root, func() { sk = lakeindex.NewSketch(signature.SketchFeatures(side)) })
		tr.do("Dynamic.Add", op, root, func() { idx.Add(req.Name, sk) })
		tr.end(root)
		sides[req.Name] = side
	}
	i := 0
	for name := range sides {
		tr.do("Dynamic.Remove", 2_000_000+i, -1, func() { idx.Remove(name) })
		i++
	}
	return sides, nil
}

// servedCompare is a compare or explain response. Its outcome is what the
// output check compares: score bits, stop reason, algorithm,
// exhaustiveness, and for explain the size of the match.
type servedCompare struct {
	serve.CompareResponse
	Pairs          []serve.WirePair `json:"pairs"`
	LeftUnmatched  []int64          `json:"left_unmatched"`
	RightUnmatched []int64          `json:"right_unmatched"`
}

func (c *servedCompare) outcome() string {
	return fmt.Sprintf("%016x|%s|%s|%t|%d|%d|%d", math.Float64bits(c.Score), c.Stopped, c.Algorithm,
		c.Exhaustive, len(c.Pairs), len(c.LeftUnmatched), len(c.RightUnmatched))
}

// job is one scheduled request.
type job struct {
	due  time.Duration // since the start of the window
	kind int
	idx  int // pair index, or churn body index
}

// schedule draws the seeded Poisson arrivals of a window of length d.
func schedule(seed int64, d time.Duration, pairs, churn int) []job {
	rng := rand.New(rand.NewSource(seed))
	var out []job
	t, c := 0.0, 0
	for {
		t += rng.ExpFloat64() / smallRate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		u := rng.Float64()
		j := job{due: due, kind: kindChurn, idx: c % churn}
		switch {
		case u < smallMix[0]:
			j = job{due, kindCompare, rng.Intn(pairs)}
		case u < smallMix[1]:
			j = job{due, kindExplain, rng.Intn(pairs)}
		case u < smallMix[2]:
			j = job{due, kindBudget, rng.Intn(pairs)}
		default:
			c++
		}
		out = append(out, j)
	}
}

func queueWaits() float64 {
	if m, ok := expvar.Get("instcmp.serve").(*expvar.Map); ok {
		if v, ok := m.Get("queue_waits").(*expvar.Int); ok {
			return float64(v.Value())
		}
	}
	return 0
}

func runSmall(cfg config, tr *tracer) (*result, error) {
	var man smallManifest
	if err := readJSON(filepath.Join(cfg.dir, "manifest.json"), &man); err != nil {
		return nil, err
	}
	regs, err := readLines(filepath.Join(cfg.dir, "register.jsonl"))
	if err != nil {
		return nil, err
	}
	reqs, err := readLines(filepath.Join(cfg.dir, "requests.jsonl"))
	if err != nil {
		return nil, err
	}
	churn, err := readLines(filepath.Join(cfg.dir, "churn.jsonl"))
	if err != nil {
		return nil, err
	}
	churnNames := make([]string, len(churn))
	for i, b := range churn {
		var req serve.RegisterRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		churnNames[i] = req.Name
	}

	var reg *serve.Registry
	var h http.Handler
	setupS, err := medianSetup(smallSetupReps, func() { reg, h = nil, nil }, func() error {
		reg = serve.NewRegistry()
		h, err = register(tr, reg, regs)
		return err
	})
	if err != nil {
		return nil, err
	}

	paths := [3]string{"/v1/compare", "/v1/explain", "/v1/compare"}
	// Reference pass, also the warm-up: one outcome per distinct request.
	ref := make([]string, len(reqs))
	for i, b := range reqs {
		rec, err := serveOnce(h, http.MethodPost, paths[i%3], b)
		if err != nil {
			return nil, err
		}
		var c servedCompare
		if rec.code != http.StatusOK || json.Unmarshal(rec.body.Bytes(), &c) != nil {
			return nil, fmt.Errorf("reference request %d: status %d: %s", i, rec.code, rec.body.Bytes())
		}
		ref[i] = c.outcome()
	}
	out := &result{digest: digestOf(ref)}

	// do runs one job; it returns success and, for compare-type requests,
	// the score over the pair's gold score.
	var mu sync.Mutex
	var scores, golds float64
	do := func(j job, op int, tr *tracer) bool {
		if j.kind == kindChurn {
			rec, err := serveOnce(h, http.MethodPost, "/v1/instances", churn[j.idx])
			if err != nil || rec.code != http.StatusCreated {
				return false
			}
			rec, err = serveOnce(h, http.MethodDelete, "/v1/instances/"+churnNames[j.idx], nil)
			return err == nil && rec.code == http.StatusOK
		}
		k := 3*j.idx + j.kind
		root := tr.begin("op", op, -1)
		sp := tr.begin("Handler.ServeHTTP", op, root)
		rec, err := serveOnce(h, http.MethodPost, paths[j.kind], reqs[k])
		tr.end(sp)
		tr.end(root)
		var c servedCompare
		if err != nil || rec.code != http.StatusOK || json.Unmarshal(rec.body.Bytes(), &c) != nil || c.outcome() != ref[k] {
			return false
		}
		mu.Lock()
		scores += c.Score
		golds += man.Pairs[j.idx].Gold
		mu.Unlock()
		if tr != nil {
			countServed(tr, &c, rec.body.Len())
		}
		return true
	}

	sched := schedule(cfg.seed, cfg.seconds, len(man.Pairs), len(churn))
	if tr == nil {
		w, _ := openLoop(cfg.seconds, sched, func(j job, op int) bool { return do(j, op, nil) })
		out.attempted, out.failed = w.attempted, w.failed
		out.metrics = append([]metric{
			{"setup_s", "s", setupS},
			{"peak_rss_mb", "MB", peakRSSMB()},
		}, endToEnd(w, smallTail, smallLimitMS)...)
		out.metrics = append(out.metrics,
			metric{"score_ratio", "ratio", scores / golds},
			metric{"recall_at_10", "ratio", 1}) // no ranking here: nothing to miss
		return out, nil
	}

	// Traced run: untraced third (runtime counters, generator lateness,
	// queue waits, overhead baseline), traced third, then a replay of the
	// engine part of compare requests through the layers' entry points.
	third := cfg.seconds / 3
	vals := map[string]float64{}
	q0 := queueWaits()
	sched = schedule(cfg.seed, third, len(man.Pairs), len(churn))
	untraced := func(j job, op int) bool { return do(j, op, nil) }
	wu, late := openLoop(third, sched, untraced)
	vals["serve.queue_waits_per_op"] = (queueWaits() - q0) / float64(wu.attempted)
	vals["loadgen.late_p99_ms"] = percentile(late, 0.99)
	for _, m := range runtimeMetrics(wu) {
		vals[m.name] = m.value
	}
	wt, _ := openLoop(third, sched, func(j job, op int) bool { return do(j, op, tr) })
	vals["trace.overhead_ratio"] = mean(wt.lats) / mean(wu.lats)
	c := tr.counts
	served, compared := c["served"], c["compared"]
	handle := tr.selfMS("Handler.ServeHTTP")
	vals["serve.handle_ms"] = handle
	vals["serve.engine_ms"] = c["serve.engine_ms"] / served
	vals["serve.overhead_ms"] = handle - c["serve.engine_ms"]/served
	vals["serve.response_kb"] = c["serve.response_bytes"] / served / 1024
	vals["serve.register_ms"] = tr.selfMS("Handler.ServeHTTP /v1/instances")
	vals["instcmp.normalize_ms"] = c["normalize_ms"] / compared
	vals["instcmp.explain_ms"] = c["explain_ms"] / compared
	vals["exact.nodes_per_op"] = c["nodes"] / compared
	vals["exact.prune_ratio"] = ratio(c["prunes"], c["nodes"])
	vals["exact.warm_optimal_ratio"] = ratio(c["warm_optimal"], c["exhaustive"])
	vals["exact.stopped_per_op"] = c["stopped"] / compared
	fillMatchCounts(vals, c, compared)

	// Replay: registration, then compare requests' engine part, through
	// the layers' entry points.
	sides, err := replayRegistration(tr, regs)
	if err != nil {
		return nil, err
	}
	replayFailed, ctx := 0, context.Background()
	start := time.Now()
	for i := 0; time.Since(start) < third; i++ {
		j := sched[i%len(sched)]
		if j.kind != kindCompare && j.kind != kindBudget {
			continue
		}
		p, budget := man.Pairs[j.idx], int64(0)
		if j.kind == kindBudget {
			budget = 1
		}
		op := 3_000_000 + i
		root := tr.begin("replay", op, -1)
		var env *match.Env
		tr.do("match.NewEnvPrepared", op, root, func() { env, err = match.NewEnvPrepared(sides[p.Left], sides[p.Right], instcmp.ManyToMany) })
		if err != nil {
			return nil, err
		}
		var res *exact.Result
		tr.do("exact.RunEnvContext", op, root, func() {
			res, err = exact.RunEnvContext(ctx, env, exact.Options{Lambda: instcmp.DefaultLambda, MaxNodes: budget, Workers: 1})
		})
		tr.end(root)
		if err != nil || fmt.Sprintf("%016x", math.Float64bits(res.Score)) != ref[3*j.idx+j.kind][:16] {
			replayFailed++
		}
	}
	vals["instcmp.prepare_ms"] = tr.selfMS("match.PrepareSide")
	vals["lakeindex.sketch_ms"] = tr.selfMS("register/lakeindex.NewSketch")
	vals["lakeindex.add_ms"] = tr.selfMS("Dynamic.Add")
	vals["lakeindex.remove_ms"] = tr.selfMS("Dynamic.Remove")
	vals["match.env_build_ms"] = tr.selfMS("match.NewEnvPrepared")
	vals["exact.run_ms"] = tr.selfMS("exact.RunEnvContext")
	out.attempted = wu.attempted + wt.attempted
	out.failed = wu.failed + wt.failed + replayFailed
	out.metrics = layerReport(vals)
	return out, nil
}

// fillMatchCounts turns the summed per-comparison counters of Result.Stats
// into per-op match, signature and score metrics.
func fillMatchCounts(vals map[string]float64, c map[string]float64, ops float64) {
	vals["match.pair_attempts_per_op"] = c["pair_attempts"] / ops
	vals["match.pair_reject_ratio"] = ratio(c["pair_rejects"], c["pair_attempts"])
	vals["signature.scan_ms"] = c["sig_phase_ms"] / ops
	vals["signature.complete_ms"] = c["compat_phase_ms"] / ops
	// Where no span wraps signature.RunEnvContext (the run sits inside
	// served compares or ranked candidates), its time is the phases the
	// stats time; compare-wide's replay overwrites it with the span.
	vals["signature.run_ms"] = (c["sig_phase_ms"] + c["compat_phase_ms"]) / ops
	vals["signature.sig_match_share"] = ratio(c["sig_matches"], c["sig_matches"]+c["compat_matches"])
	vals["signature.parallel_blocks_per_op"] = c["parallel_blocks"] / ops
	vals["score.evals_per_op"] = c["score_evals"] / ops
}

// countServed records the counts a compare or explain response returns.
func countServed(tr *tracer, c *servedCompare, size int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.counts
	n["served"]++
	n["serve.engine_ms"] += c.ElapsedMS
	n["serve.response_bytes"] += float64(size)
	if c.Stats == nil {
		return
	}
	n["compared"]++
	if c.Exhaustive {
		n["exhaustive"]++
		if math.Abs(c.Stats.WarmScore-c.Score) < 1e-12 {
			n["warm_optimal"]++
		}
	}
	if c.Stopped != "" {
		n["stopped"]++
	}
	addStats(n, c.Stats)
}

// addStats sums one comparison's Result.Stats counters into c.
func addStats(c map[string]float64, s *instcmp.ComparisonStats) {
	c["nodes"] += float64(s.Nodes)
	c["prunes"] += float64(s.Prunes)
	c["pair_attempts"] += float64(s.PairAttempts)
	c["pair_rejects"] += float64(s.PairRejects)
	c["score_evals"] += float64(s.ScoreEvals)
	c["sig_matches"] += float64(s.SigMatches)
	c["compat_matches"] += float64(s.CompatMatches)
	c["sig_phase_ms"] += ms(s.SigPhase)
	c["compat_phase_ms"] += ms(s.CompatPhase)
	c["parallel_blocks"] += float64(s.SigParallelBlocks)
	c["normalize_ms"] += ms(s.NormalizeTime)
	c["explain_ms"] += ms(s.ExplainTime)
}

// serveWorkers is the server's worker pool size and the rank requests'
// candidate fan-out: one per CPU.
func serveWorkers() int { return runtime.NumCPU() }

// openLoop offers the schedule to one worker per CPU, so no more CPU-bound
// goroutines run than there are CPUs. Each worker takes the next job in
// schedule order, waits until it is due and runs it: a first-come
// first-served queue with one server per CPU. Every job is timed from its
// due time, so a stall or a queue wait is charged to every job due during
// it. A worker waits by spinning (see spinUntil), not by sleeping: on a
// virtual machine an idle vCPU halts, and the host's delay in waking it
// again (several ms at p99 on a 2-vCPU machine, README.md) is not the
// program's. openLoop also returns, for the jobs a worker waited for, how
// late it started them: the generator's own error.
func openLoop(d time.Duration, sched []job, do func(j job, op int) bool) (*window, []float64) {
	lats := make([]float64, len(sched))
	late := make([]float64, len(sched))
	waited := make([]bool, len(sched))
	okv := make([]bool, len(sched))
	w := timed(func(w *window) {
		var next, completed atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < runtime.NumCPU(); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(sched) {
						return
					}
					due := sched[i].due
					if time.Since(start) < due {
						w.waitCPU.Add(int64(spinUntil(start, due)))
						late[i], waited[i] = ms(time.Since(start)-due), true
					}
					okv[i] = do(sched[i], i)
					lats[i] = ms(time.Since(start) - due)
					completed.Add(1)
				}
			}()
		}
		// The stretch boundaries are cut by a goroutine of their own that
		// sleeps between them.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= chunks; k++ {
				if wait := time.Duration(k)*d/chunks - time.Since(start); wait > 0 {
					sleep(wait)
				}
				w.cut(completed.Load())
			}
		}()
		wg.Wait()
	})
	w.lats, w.ok = lats, okv
	w.attempted = len(sched)
	for _, ok := range okv {
		if !ok {
			w.failed++
		}
	}
	var lateWaited []float64
	for i, l := range late {
		if waited[i] {
			lateWaited = append(lateWaited, l)
		}
	}
	return w, lateWaited
}

// spinUntil busy-waits until due has passed since start. Every
// spinYield it yields its P, so the runtime's own goroutines (GC workers,
// the stretch cutter) are not held off by the wait. It returns the CPU time
// the wait used: the sum of its own steps between clock reads. A step longer
// than spinStep means another goroutine ran or the vCPU was taken away; it
// is not counted.
func spinUntil(start time.Time, due time.Duration) time.Duration {
	const spinYield, spinStep = 20 * time.Microsecond, 5 * time.Microsecond
	var used time.Duration
	last := time.Since(start)
	yielded := last
	for last < due {
		if last-yielded >= spinYield {
			runtime.Gosched()
			yielded = last
		}
		now := time.Since(start)
		if step := now - last; step < spinStep {
			used += step
		}
		last = now
	}
	return used
}

// sleep blocks the calling goroutine in nanosleep(2) rather than on a Go
// timer, whose wake-up waits for a P to pass through the scheduler.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only releases early
}
