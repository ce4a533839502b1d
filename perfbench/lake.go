package main

// lake-rank: one client sends /v1/rank over the whole registry in a closed
// loop. The registry holds ~600 Doct-shaped tables of ~200 rows, built as
// families of noisy versions, plus the query tables. Requests use top_k 10,
// the default shortlist, one candidate worker per CPU and sequential
// signature runs. This workload covers the sketch index's reads (sketch,
// probe, shortlist), candidate fan-out and the sequential signature path on
// mid-size inputs. setup_s is registering the lake: decode, prepare, sketch,
// index add.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"instcmp"
	"instcmp/internal/lake"
	"instcmp/internal/lakeindex"
	"instcmp/internal/match"
	"instcmp/internal/serve"
)

const (
	lakeSetupReps = 9
	lakeTail      = 0.90  // a few ranks per second: p90 keeps >=10 samples beyond it
	lakeLimitMS   = 300.0 // latency limit of one ranking, about twice the p50
	topK          = 10
)

// rankOutcome is what the output check compares: the top-k names with
// their score bits.
func rankOutcome(rr *serve.RankResponse) string {
	var b strings.Builder
	for i, r := range rr.Results {
		if i == topK {
			break
		}
		fmt.Fprintf(&b, "%s:%016x,", r.Name, math.Float64bits(r.Score))
	}
	return b.String()
}

func topNames(rr *serve.RankResponse) []string {
	var out []string
	for i, r := range rr.Results {
		if i == topK {
			break
		}
		out = append(out, r.Name)
	}
	return out
}

// postRank sends a rank request and decodes the response. In a traced run
// the span covers the handler only, not the decoding.
func postRank(tr *tracer, op, parent int, h http.Handler, body []byte) (*serve.RankResponse, int, error) {
	var rec *recorder
	var err error
	tr.do("Handler.ServeHTTP", op, parent, func() { rec, err = serveOnce(h, http.MethodPost, "/v1/rank", body) })
	if err != nil {
		return nil, 0, err
	}
	if rec.code != http.StatusOK {
		return nil, rec.body.Len(), fmt.Errorf("rank: status %d: %s", rec.code, rec.body.Bytes())
	}
	var rr serve.RankResponse
	if err := json.Unmarshal(rec.body.Bytes(), &rr); err != nil {
		return nil, rec.body.Len(), err
	}
	return &rr, rec.body.Len(), nil
}

// spanSearcher wraps the registry's index so a traced ranking records each
// Dynamic.Shortlist call as a span.
type spanSearcher struct {
	lakeindex.Searcher
	tr       *tracer
	op, root int
}

func (s *spanSearcher) Shortlist(q *lakeindex.Sketch, target int) ([]lakeindex.Hit, lakeindex.ProbeStats) {
	var hits []lakeindex.Hit
	var ps lakeindex.ProbeStats
	s.tr.do("Dynamic.Shortlist", s.op, s.root, func() { hits, ps = s.Searcher.Shortlist(q, target) })
	return hits, ps
}

func runLake(cfg config, tr *tracer) (*result, error) {
	var man lakeManifest
	if err := readJSON(filepath.Join(cfg.dir, "manifest.json"), &man); err != nil {
		return nil, err
	}
	regs, err := readLines(filepath.Join(cfg.dir, "register.jsonl"))
	if err != nil {
		return nil, err
	}
	ranks, err := readLines(filepath.Join(cfg.dir, "ranks.jsonl"))
	if err != nil {
		return nil, err
	}

	var reg *serve.Registry
	var h http.Handler
	setupS, err := medianSetup(lakeSetupReps, func() { reg, h = nil, nil }, func() error {
		reg = serve.NewRegistry()
		h, err = register(tr, reg, regs)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Reference pass, also the warm-up: each query's indexed ranking, and
	// its no_index full scan whose top-10 is the recall oracle.
	nq := len(man.Queries)
	ref := make([]string, nq)
	oracle := make([][]string, nq)
	var digestIn []string
	for q := range man.Queries {
		rr, _, err := postRank(nil, 0, -1, h, ranks[2*q])
		if err != nil {
			return nil, err
		}
		ref[q] = rankOutcome(rr)
		full, _, err := postRank(nil, 0, -1, h, ranks[2*q+1])
		if err != nil {
			return nil, err
		}
		oracle[q] = topNames(full)
		digestIn = append(digestIn, ref[q], rankOutcome(full))
	}
	out := &result{digest: digestOf(digestIn)}

	var recalls []float64
	var scores, golds float64
	check := func(q int, rr *serve.RankResponse) bool {
		if rankOutcome(rr) != ref[q] {
			return false
		}
		hit := 0
		for _, n := range topNames(rr) {
			for _, o := range oracle[q] {
				if n == o {
					hit++
				}
			}
		}
		recalls = append(recalls, float64(hit)/float64(len(oracle[q])))
		partner := 0.0 // a gold partner missing from the top-k scores 0
		for _, r := range rr.Results[:min(topK, len(rr.Results))] {
			if r.Name == man.Queries[q].Partner {
				partner = r.Score
			}
		}
		scores += partner
		golds += man.Queries[q].Gold
		return true
	}
	op := func(i int) bool {
		q := i % nq
		rr, _, err := postRank(nil, 0, -1, h, ranks[2*q])
		return err == nil && check(q, rr)
	}

	if tr == nil {
		w := closedLoop(cfg.seconds, op)
		out.attempted, out.failed = w.attempted, w.failed
		out.metrics = append([]metric{
			{"setup_s", "s", setupS},
			{"peak_rss_mb", "MB", peakRSSMB()},
		}, endToEnd(w, lakeTail, lakeLimitMS)...)
		out.metrics = append(out.metrics,
			metric{"score_ratio", "ratio", scores / golds},
			metric{"recall_at_10", "ratio", mean(recalls)})
		return out, nil
	}

	// Traced run: untraced third, traced third (ServeHTTP under spans, with
	// the counts the rank response returns), then a replay calling the
	// layers' entry points in the order the handler calls them.
	third := cfg.seconds / 3
	vals := map[string]float64{}
	q0 := queueWaits()
	wu := closedLoop(third, op)
	vals["serve.queue_waits_per_op"] = (queueWaits() - q0) / float64(wu.attempted)
	for _, m := range runtimeMetrics(wu) {
		vals[m.name] = m.value
	}
	tracedOp := func(i int) bool {
		q := i % nq
		root := tr.begin("op", i, -1)
		rr, size, err := postRank(tr, i, root, h, ranks[2*q])
		tr.end(root)
		if err != nil || !check(q, rr) {
			return false
		}
		tr.count("served", 1)
		tr.count("serve.engine_ms", rr.ElapsedMS)
		tr.count("serve.response_bytes", float64(size))
		tr.count("probed", float64(rr.Index.Probed))
		tr.count("shortlist", float64(rr.Index.ShortlistSize))
		if rr.Index.Widened {
			tr.count("widened", 1)
		}
		return true
	}
	wt := closedLoop(third, tracedOp)
	vals["trace.overhead_ratio"] = mean(wt.lats) / mean(wu.lats)
	c := tr.counts
	served := c["served"]
	handle := tr.selfMS("Handler.ServeHTTP")
	vals["serve.handle_ms"] = handle
	vals["serve.engine_ms"] = c["serve.engine_ms"] / served
	vals["serve.overhead_ms"] = handle - c["serve.engine_ms"]/served
	vals["serve.response_kb"] = c["serve.response_bytes"] / served / 1024
	vals["serve.register_ms"] = tr.selfMS("Handler.ServeHTTP /v1/instances")
	vals["lakeindex.probed_per_op"] = c["probed"] / served
	vals["lakeindex.widened_ratio"] = c["widened"] / served
	vals["lake.shortlist_size"] = c["shortlist"] / served
	vals["lake.topk_yield"] = float64(topK) / (c["shortlist"] / served)

	sides, err := replayRegistration(tr, regs)
	if err != nil {
		return nil, err
	}
	cands, err := reg.Candidates("", nil)
	if err != nil {
		return nil, err
	}
	rc := map[string]float64{}
	replays, replayFailed := 0, 0
	start := time.Now()
	for i := 0; i < nq || time.Since(start) < third; i++ {
		q := man.Queries[i%nq]
		ok, err := replayRank(tr, 4_000_000+i, reg, cands, sides, q.Example, ref[i%nq], rc)
		if err != nil {
			return nil, err
		}
		if !ok {
			replayFailed++
		}
		replays++
	}
	n := float64(replays)
	vals["instcmp.prepare_ms"] = tr.selfMS("match.PrepareSide")
	vals["lakeindex.add_ms"] = tr.selfMS("Dynamic.Add")
	vals["lakeindex.remove_ms"] = tr.selfMS("Dynamic.Remove")
	vals["lakeindex.sketch_ms"] = tr.selfMS("lakeindex.NewSketch")
	vals["lakeindex.probe_ms"] = tr.selfMS("Dynamic.Shortlist")
	vals["lake.rank_ms"] = tr.selfMS("lake.RankIndexedContext")
	vals["match.env_build_ms"] = tr.selfMS("match.NewEnvPrepared")
	vals["lake.candidate_compare_ms"] = rc["compare_ms"] / rc["compared"]
	vals["instcmp.normalize_ms"] = rc["normalize_ms"] / n
	vals["instcmp.explain_ms"] = rc["explain_ms"] / n
	fillMatchCounts(vals, rc, n)
	out.attempted = wu.attempted + wt.attempted
	out.failed = wu.failed + wt.failed + replayFailed
	out.metrics = layerReport(vals)
	return out, nil
}

// replayRank runs one ranking through the layers' entry points in the order
// the rank handler reaches them: sketch the example, shortlist through the
// index (lake.RankIndexedContext calls Dynamic.Shortlist), compare the
// shortlisted candidates; then it builds the joint environment of each
// shortlisted pair once more to time that step on its own. The ranking must
// equal the served one. Per-candidate Result.Stats are summed into c.
func replayRank(tr *tracer, op int, reg *serve.Registry, all []lake.PreparedCandidate,
	sides map[string]*match.PreparedSide, example, ref string, c map[string]float64) (bool, error) {
	ex, ok := reg.Get(example)
	if !ok {
		return false, fmt.Errorf("replay: unknown example %q", example)
	}
	cands := make([]lake.PreparedCandidate, 0, len(all)-1)
	for _, cd := range all {
		if cd.Name != example {
			cands = append(cands, cd)
		}
	}
	root := tr.begin("replay", op, -1)
	defer tr.end(root)
	tr.do("lakeindex.NewSketch", op, root, func() { lakeindex.NewSketch(ex.Prepared.SketchFeatures()) })
	rs := tr.begin("lake.RankIndexedContext", op, root)
	idx := &spanSearcher{Searcher: reg.Index(), tr: tr, op: op, root: rs}
	results, _, err := lake.RankIndexedContext(context.Background(), ex.Prepared, cands, idx, lake.Options{
		TopK: topK, Workers: serveWorkers(), SigWorkers: 1,
	})
	tr.end(rs)
	if err != nil {
		return false, err
	}
	rr := &serve.RankResponse{}
	for _, r := range results {
		rr.Results = append(rr.Results, serve.RankedResult{Name: r.Name, Score: r.Score})
		if r.Stats == nil {
			continue
		}
		s := r.Stats
		c["compared"]++
		c["compare_ms"] += ms(s.NormalizeTime + s.SearchTime + s.ExplainTime)
		addStats(c, s)
		var err error
		tr.do("match.NewEnvPrepared", op, root, func() { _, err = match.NewEnvPrepared(sides[example], sides[r.Name], instcmp.ManyToMany) })
		if err != nil {
			return false, err
		}
	}
	return rankOutcome(rr) == ref, nil
}
