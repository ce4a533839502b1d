package main

// Input generation. Everything a workload feeds the program is made here,
// from the seed alone, and written to files before the measuring process
// starts: CSV files for compare-wide, JSON request bodies for the served
// workloads, plus a manifest with the by-construction gold scores. The
// measuring process only reads these files, so neither generation time nor
// generator memory shows up in its numbers.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"instcmp"
	"instcmp/internal/csvio"
	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/model"
	"instcmp/internal/serve"
)

// Workload shapes. They are constants, not flags: a benchmark whose inputs
// can be resized per run cannot be compared across commits.
const (
	wideRows  = 1000 // rows per side of a compare-wide pair (Git-shaped, 19 attributes)
	widePairs = 12   // distinct pairs the compare-wide client cycles over

	smallPairs   = 1500 // serve-small registry: 2 instances per pair
	smallMinRows = 6    // rows per side of a serve-small pair, drawn uniformly
	smallMaxRows = 12   // from [min, max]; 2*12 <= the AlgoAuto exact cutoff
	churnPool    = 400  // distinct register+delete bodies cycled by serve-small

	lakeFamilies = 60  // lake-rank: families of noisy versions of one base table
	lakeVersions = 10  // members per family
	lakeRows     = 200 // rows per lake table (Doct-shaped, 5 attributes)
	lakeQueries  = 12  // distinct rank queries the lake-rank client cycles over
)

// table2Noise is the paper's Table 2 noise: modCell with C% = 5 and null
// reuse.
func table2Noise(seed int64) generator.Noise {
	return generator.Noise{CellPct: 0.05, NullReuse: 0.3, Seed: seed}
}

// smallNoise is Table 2's noise at C% = 30 for serve-small's tiny pairs. At
// 5% a 6-12 row pair has one or two modified cells, the warm start is
// always optimal and a one-node exact budget never bites; at 30% about a
// third of the budgeted requests degrade.
func smallNoise(seed int64) generator.Noise {
	n := table2Noise(seed)
	n.CellPct = 0.3
	return n
}

// widePair is one compare-wide input pair on disk.
type widePair struct {
	Left  string  `json:"left"`
	Right string  `json:"right"`
	Gold  float64 `json:"gold"`
}

type wideManifest struct {
	Relation string     `json:"relation"`
	Pairs    []widePair `json:"pairs"`
}

// smallPair names one registered serve-small pair and its gold score.
type smallPair struct {
	Left  string  `json:"left"`
	Right string  `json:"right"`
	Gold  float64 `json:"gold"`
}

type smallManifest struct {
	Pairs []smallPair `json:"pairs"`
}

// lakeQuery is one lake-rank query: the example's name, the lake member
// generated from the same scenario (its gold partner) and their gold score.
type lakeQuery struct {
	Example string  `json:"example"`
	Partner string  `json:"partner"`
	Gold    float64 `json:"gold"`
}

type lakeManifest struct {
	Queries []lakeQuery `json:"queries"`
}

func generate(workload string, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	switch workload {
	case "compare-wide":
		return genWide(seed, dir)
	case "serve-small":
		return genSmall(seed, dir)
	case "lake-rank":
		return genLake(seed, dir)
	}
	return fmt.Errorf("unknown workload %q", workload)
}

func genWide(seed int64, dir string) error {
	m := wideManifest{Relation: "Repo"}
	for i := 0; i < widePairs; i++ {
		base, err := datasets.Generate(datasets.Git, wideRows, seed*1000+int64(i))
		if err != nil {
			return err
		}
		sc := generator.Make(base, table2Noise(seed*1000+int64(i)))
		gold, err := sc.GoldScore(instcmp.DefaultLambda)
		if err != nil {
			return err
		}
		p := widePair{Left: fmt.Sprintf("pair%d-left.csv", i), Right: fmt.Sprintf("pair%d-right.csv", i), Gold: gold}
		if err := writeCSV(filepath.Join(dir, p.Left), sc.Source); err != nil {
			return err
		}
		if err := writeCSV(filepath.Join(dir, p.Right), sc.Target); err != nil {
			return err
		}
		m.Pairs = append(m.Pairs, p)
	}
	return writeJSON(filepath.Join(dir, "manifest.json"), m)
}

func writeCSV(path string, in *model.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csvio.WriteRelation(f, in.Relations()[0]); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func genSmall(seed int64, dir string) error {
	rng := rand.New(rand.NewSource(seed))
	var regs []serve.RegisterRequest
	var m smallManifest
	for i := 0; i < smallPairs; i++ {
		rows := smallMinRows + rng.Intn(smallMaxRows-smallMinRows+1)
		base := datasets.Doctors(rows, rand.New(rand.NewSource(rng.Int63())))
		sc := generator.Make(base, smallNoise(rng.Int63()))
		gold, err := sc.GoldScore(instcmp.DefaultLambda)
		if err != nil {
			return err
		}
		p := smallPair{Left: fmt.Sprintf("p%04d-l", i), Right: fmt.Sprintf("p%04d-r", i), Gold: gold}
		regs = append(regs,
			serve.RegisterRequest{Name: p.Left, Instance: *serve.EncodeInstance(sc.Source)},
			serve.RegisterRequest{Name: p.Right, Instance: *serve.EncodeInstance(sc.Target)})
		m.Pairs = append(m.Pairs, p)
	}
	var churn []serve.RegisterRequest
	for i := 0; i < churnPool; i++ {
		rows := smallMinRows + rng.Intn(smallMaxRows-smallMinRows+1)
		base := datasets.Doctors(rows, rand.New(rand.NewSource(rng.Int63())))
		churn = append(churn, serve.RegisterRequest{Name: fmt.Sprintf("churn%03d", i), Instance: *serve.EncodeInstance(base)})
	}
	// Three request bodies per pair, in pair order: compare, explain, and
	// compare with a one-node exact budget (deterministic degradation).
	// Every request runs single-threaded; the server's worker pool is the
	// only parallelism.
	var reqs []any
	for _, p := range m.Pairs {
		opt := serve.WireOptions{SigWorkers: 1, ExactWorkers: 1}
		budget := opt
		budget.ExactMaxNodes = 1
		reqs = append(reqs,
			serve.CompareRequest{Left: p.Left, Right: p.Right, Options: opt},
			serve.ExplainRequest{Left: p.Left, Right: p.Right, Options: opt},
			serve.CompareRequest{Left: p.Left, Right: p.Right, Options: budget})
	}
	if err := writeLines(filepath.Join(dir, "register.jsonl"), regs); err != nil {
		return err
	}
	if err := writeLines(filepath.Join(dir, "requests.jsonl"), reqs); err != nil {
		return err
	}
	if err := writeLines(filepath.Join(dir, "churn.jsonl"), churn); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "manifest.json"), m)
}

// lakeTable makes a Doct-shaped base table whose identifying columns (Id,
// Name, Hospital) carry a family tag, so families are told apart by their
// constants the way real lake tables are, while Spec and City draw from a
// vocabulary every family shares.
func lakeTable(family int, rng *rand.Rand) *model.Instance {
	doc := datasets.Doctors(lakeRows, rng)
	rel := doc.Relations()[0]
	out := model.NewInstance()
	out.AddRelation(rel.Name, rel.Attrs...)
	for _, t := range rel.Tuples {
		vals := append([]model.Value(nil), t.Values...)
		for _, a := range []int{0, 1, 3} {
			if vals[a].IsConst() {
				vals[a] = model.Constf("f%d_%s", family, vals[a].Raw())
			}
		}
		out.Append(rel.Name, vals...)
	}
	return out
}

func genLake(seed int64, dir string) error {
	rng := rand.New(rand.NewSource(seed))
	var regs []serve.RegisterRequest
	var m lakeManifest
	for f := 0; f < lakeFamilies; f++ {
		base := lakeTable(f, rand.New(rand.NewSource(rng.Int63())))
		query := f%(lakeFamilies/lakeQueries) == 0
		for v := 0; v < lakeVersions; v++ {
			sc := generator.Make(base, table2Noise(rng.Int63()))
			name := fmt.Sprintf("f%02dv%d", f, v)
			// Null names are made unique per table, so no comparison pays
			// for renaming the two sides apart.
			regs = append(regs, serve.RegisterRequest{Name: name, Instance: *serve.EncodeInstance(sc.Target.RenameNulls(name + "·"))})
			if query && v == 0 {
				gold, err := sc.GoldScore(instcmp.DefaultLambda)
				if err != nil {
					return err
				}
				q := lakeQuery{Example: fmt.Sprintf("q%02d", f), Partner: name, Gold: gold}
				regs = append(regs, serve.RegisterRequest{Name: q.Example, Instance: *serve.EncodeInstance(sc.Source.RenameNulls(q.Example + "·"))})
				m.Queries = append(m.Queries, q)
			}
		}
	}
	// Two rank bodies per query: the measured indexed ranking and the
	// no_index full scan whose top-10 is the recall oracle. Candidate
	// fan-out uses one worker per CPU and each comparison stays sequential.
	var ranks []serve.RankRequest
	for _, q := range m.Queries {
		r := serve.RankRequest{Example: q.Example, TopK: 10, Workers: runtime.NumCPU(), Options: serve.WireOptions{SigWorkers: 1}}
		full := r
		full.NoIndex = true
		ranks = append(ranks, r, full)
	}
	if err := writeLines(filepath.Join(dir, "register.jsonl"), regs); err != nil {
		return err
	}
	if err := writeLines(filepath.Join(dir, "ranks.jsonl"), ranks); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "manifest.json"), m)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// writeLines writes one JSON document per line: each line is one request
// body, sent to the server byte for byte.
func writeLines[T any](path string, vs []T) error {
	var buf []byte
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf = append(append(buf, b...), '\n')
	}
	return os.WriteFile(path, buf, 0o644)
}
