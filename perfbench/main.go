// Command perfbench is the repository's benchmark. It runs one of three
// workloads, each stressing a different layer of the comparison stack, and
// prints its metrics as one JSON object on the last line of standard
// output. README.md explains the workloads, the metrics and the load-shape
// rules; run.py builds this program, generates the inputs and runs it.
//
//	perfbench gen --workload W --seed N --dir D
//	perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D --out O
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// digests pins, per workload and seed, the digest of every distinct op's
// outcome. A deliberate behaviour change re-pins them in a change of its
// own; every run prints its digest on standard error.
//
//go:embed digests.json
var digestsJSON []byte

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // generated inputs
	out      string // trace output
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	digest            string
	metrics           []metric // end-to-end (untraced) or per-layer (traced)
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench gen|run [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	workload := fs.String("workload", "", "compare-wide, serve-small or lake-rank")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", "", "directory of generated inputs")
	out := fs.String("out", ".", "directory for the trace file")
	fs.Parse(os.Args[2:])
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -dir is required")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "gen":
		if err := generate(*workload, *seed, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(1)
		}
	case "run":
		os.Exit(run(config{
			workload: *workload,
			seed:     *seed,
			seconds:  time.Duration(*seconds * float64(time.Second)),
			traced:   *trace == 1,
			dir:      *dir,
			out:      *out,
		}))
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown command %q\n", os.Args[1])
		os.Exit(2)
	}
}

func run(cfg config) int {
	env := envInfo()
	envLine, _ := json.Marshal(map[string]any{"env": env, "workload": cfg.workload, "seed": cfg.seed})
	fmt.Println(string(envLine))

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var res *result
	var err error
	switch cfg.workload {
	case "compare-wide":
		res, err = runWide(cfg, tr)
	case "serve-small":
		res, err = runSmall(cfg, tr)
	case "lake-rank":
		res, err = runLake(cfg, tr)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Output checks: every op was checked against its reference outcome
	// inside the workload; here the references themselves are checked
	// against the pinned digest of this workload and seed, when one exists.
	var pinned map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		return 1
	}
	seedKey := strconv.FormatInt(cfg.seed, 10)
	want, havePin := pinned[cfg.workload][seedKey]
	switch {
	case !havePin:
		fmt.Fprintf(os.Stderr, "digest %s (seed %d not pinned)\n", res.digest, cfg.seed)
	case want != res.digest:
		fmt.Fprintf(os.Stderr, "DIGEST MISMATCH: got %s, pinned %s\n", res.digest, want)
		res.failed++
	default:
		fmt.Fprintf(os.Stderr, "digest %s matches the pinned value\n", res.digest)
	}
	errorRatio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(os.Stderr, "error_ratio %g (%d failed of %d attempted)\n", errorRatio, res.failed, res.attempted)

	if tr != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path, env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(tr.spans), path)
	}

	metrics := map[string]any{}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number\n", m.name)
			return 1
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.6f %s\n", m.name, v, m.unit)
	}
	correct := res.failed == 0
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// envInfo records what the numbers depend on besides the code.
func envInfo() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// digestOf hashes a list of outcomes in order.
func digestOf(outcomes []string) string {
	h := sha256.Sum256([]byte(strings.Join(outcomes, "\n")))
	return hex.EncodeToString(h[:8])
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// readLines returns the non-empty lines of a file: one request body each.
func readLines(path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, l := range strings.Split(string(b), "\n") {
		if l != "" {
			out = append(out, []byte(l))
		}
	}
	return out, nil
}
