package main

// compare-wide: one-shot instcmp.CompareContext on Git-shaped pairs (19
// attributes, ~1000 rows per side, Table 2 noise, 1-to-1, signature, default
// SigWorkers = GOMAXPROCS). One client cycles over a few seeded pairs in a
// closed loop. This is the cmd/instcmp and experiments path: per-op
// normalize+prepare, the produce/commit signature pipeline and rescue do
// most of the work. setup_s is loading the pairs with instcmp.LoadCSV.

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"instcmp"
	"instcmp/internal/match"
	"instcmp/internal/signature"
)

const (
	wideSetupReps = 15
	wideTail      = 0.90  // ~10 ops/s: p90 keeps >=10 samples beyond it
	wideLimitMS   = 200.0 // latency limit of one comparison, about twice the p50
)

type loadedPair struct {
	l, r *instcmp.Instance
	gold float64
}

func wideOptions() *instcmp.Options {
	return &instcmp.Options{Mode: instcmp.OneToOne, Algorithm: instcmp.AlgoSignature}
}

// wideOutcome is what the output check compares: score bits, stop reason,
// algorithm and the size of the tuple mapping.
func wideOutcome(res *instcmp.Result) string {
	return fmt.Sprintf("%016x|%s|%s|%d", math.Float64bits(res.Score), res.Stopped, res.Algorithm, len(res.Pairs))
}

func runWide(cfg config, tr *tracer) (*result, error) {
	var man wideManifest
	if err := readJSON(filepath.Join(cfg.dir, "manifest.json"), &man); err != nil {
		return nil, err
	}
	var pairs []loadedPair
	setupOp := 0
	load := func() error {
		pairs = make([]loadedPair, 0, len(man.Pairs))
		csvOpt := instcmp.CSVOptions{RelationName: man.Relation}
		for _, p := range man.Pairs {
			var lp loadedPair
			var errL, errR error
			tr.do("instcmp.LoadCSV", setupOp, -1, func() { lp.l, errL = instcmp.LoadCSV(filepath.Join(cfg.dir, p.Left), csvOpt) })
			setupOp++
			tr.do("instcmp.LoadCSV", setupOp, -1, func() { lp.r, errR = instcmp.LoadCSV(filepath.Join(cfg.dir, p.Right), csvOpt) })
			setupOp++
			if errL != nil || errR != nil {
				return fmt.Errorf("loading pair: %v %v", errL, errR)
			}
			lp.gold = p.Gold
			pairs = append(pairs, lp)
		}
		return nil
	}
	setupS, err := medianSetup(wideSetupReps, func() { pairs = nil }, load)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	opt := wideOptions()
	// Reference pass, also the warm-up: one outcome per distinct pair.
	ref := make([]string, len(pairs))
	for i, p := range pairs {
		res, err := instcmp.CompareContext(ctx, p.l, p.r, opt)
		if err != nil {
			return nil, err
		}
		ref[i] = wideOutcome(res)
	}
	out := &result{digest: digestOf(ref)}

	var scores, golds float64
	op := func(i int) bool {
		p := pairs[i%len(pairs)]
		res, err := instcmp.CompareContext(ctx, p.l, p.r, opt)
		if err != nil || wideOutcome(res) != ref[i%len(pairs)] {
			return false
		}
		scores += res.Score
		golds += p.gold
		return true
	}

	if tr == nil {
		w := closedLoop(cfg.seconds, op)
		out.attempted, out.failed = w.attempted, w.failed
		out.metrics = append([]metric{
			{"setup_s", "s", setupS},
			{"peak_rss_mb", "MB", peakRSSMB()},
		}, endToEnd(w, wideTail, wideLimitMS)...)
		out.metrics = append(out.metrics,
			metric{"score_ratio", "ratio", scores / golds},
			metric{"recall_at_10", "ratio", 1}) // no ranking here: nothing to miss
		return out, nil
	}

	// Traced run: an untraced third (baseline for the overhead ratio and
	// the runtime counters), a traced third (facade calls under spans, with
	// the counts Result.Stats returns), and a replay third that calls each
	// layer's entry point in the order the facade calls them.
	third := cfg.seconds / 3
	wu := closedLoop(third, op)
	vals := map[string]float64{}
	for _, m := range runtimeMetrics(wu) {
		vals[m.name] = m.value
	}
	tracedOp := func(i int) bool {
		p := pairs[i%len(pairs)]
		root := tr.begin("op", i, -1)
		var res *instcmp.Result
		var err error
		tr.do("instcmp.CompareContext", i, root, func() { res, err = instcmp.CompareContext(ctx, p.l, p.r, opt) })
		tr.end(root)
		if err != nil || wideOutcome(res) != ref[i%len(pairs)] {
			return false
		}
		addStats(tr.counts, &res.Stats)
		return true
	}
	wt := closedLoop(third, tracedOp)
	n := float64(wt.attempted)
	vals["trace.overhead_ratio"] = mean(wt.lats) / mean(wu.lats)
	vals["instcmp.explain_ms"] = tr.counts["explain_ms"] / n
	fillMatchCounts(vals, tr.counts, n)

	replayFailed := 0
	start := time.Now()
	for i := 0; i < len(pairs) || time.Since(start) < third; i++ {
		if !replayWide(ctx, tr, 1_000_000+i, pairs[i%len(pairs)], ref[i%len(pairs)]) {
			replayFailed++
		}
	}
	vals["csvio.load_ms"] = tr.selfMS("instcmp.LoadCSV")
	vals["instcmp.normalize_ms"] = tr.selfMS("instcmp.normalize")
	vals["instcmp.prepare_ms"] = tr.selfMS("match.PrepareSide")
	vals["match.env_build_ms"] = tr.selfMS("match.NewEnvPrepared")
	vals["signature.run_ms"] = tr.selfMS("signature.RunEnvContext")
	out.attempted = wu.attempted + wt.attempted
	out.failed = wu.failed + wt.failed + replayFailed
	out.metrics = layerReport(vals)
	return out, nil
}

// replayWide runs one comparison through the layers' entry points in the
// facade's order: normalize (snapshot both sides; the generated pairs have
// disjoint null names, so no renaming), prepare each side, build the joint
// environment, run the signature pipeline. Its score must equal the
// facade's.
func replayWide(ctx context.Context, tr *tracer, op int, p loadedPair, ref string) bool {
	root := tr.begin("replay", op, -1)
	defer tr.end(root)
	var l, r *instcmp.Instance
	tr.do("instcmp.normalize", op, root, func() { l, r = p.l.Clone(), p.r.Clone() })
	var ls, rs *match.PreparedSide
	var errL, errR error
	tr.do("match.PrepareSide", op, root, func() {
		ls, errL = match.PrepareSide(l)
		rs, errR = match.PrepareSide(r)
	})
	if errL != nil || errR != nil {
		return false
	}
	var env *match.Env
	var err error
	tr.do("match.NewEnvPrepared", op, root, func() { env, err = match.NewEnvPrepared(ls, rs, instcmp.OneToOne) })
	if err != nil {
		return false
	}
	var res *signature.Result
	tr.do("signature.RunEnvContext", op, root, func() {
		res, err = signature.RunEnvContext(ctx, env, signature.Options{Lambda: instcmp.DefaultLambda})
	})
	return err == nil && fmt.Sprintf("%016x", math.Float64bits(res.Score)) == ref[:16]
}
