package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/gen/graphs"
	"repro/internal/gen/iwarded"
	"repro/internal/gen/lubm"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/storage"
	"repro/vadalog"
)

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"iwarded-chase", "control-csv", "lubm-serve"}

// lubmPool is how many distinct universities a lubm-serve run cycles
// through: enough that per-request size differences average out within
// one pool cycle, few enough that every pool member repeats in a run.
const lubmPool = 16

// workload is one seeded set of inputs: the program text, the engine it
// runs on, and the per-operation fact sets (operation i runs
// pool[i%len(pool)]). control-csv reads its input through @bind, so its
// single pool entry is empty.
type workload struct {
	name   string
	seed   int64
	engine vadalog.Engine
	src    string
	pool   [][]ast.Fact
	csv    string // path of the bound own.csv (control-csv only)
	// batch marks workloads whose operation is one whole reasoning job
	// (hundreds of MB allocated): the heap is collected before each, so
	// the previous job's and the output check's garbage is not charged
	// to it. Served requests (lubm-serve) keep their GC tails.
	batch bool
}

// settle collects the heap before an operation of a batch workload.
func (w *workload) settle() {
	if w.batch {
		runtime.GC()
	}
}

// buildWorkload generates the inputs of workload name from seed. Files
// it writes (control-csv's CSV) go under dataDir.
func buildWorkload(name string, seed int64, dataDir string) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case "iwarded-chase":
		cfg, _ := iwarded.Scenario("synthB")
		cfg.FactsPerRel = 1000
		cfg.Seed = seed
		g, err := iwarded.Generate(cfg)
		if err != nil {
			return nil, err
		}
		w.engine = vadalog.EngineChase
		w.batch = true
		w.src = g.Source
		w.pool = [][]ast.Fact{g.Facts}
	case "control-csv":
		g := graphs.ScaleFree(100000, graphs.PaperParams(), seed)
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		path, err := filepath.Abs(filepath.Join(dataDir, fmt.Sprintf("own-seed%d.csv", seed)))
		if err != nil {
			return nil, err
		}
		if err := vadalog.WriteCSV(path, g.OwnFacts()); err != nil {
			return nil, err
		}
		w.engine = vadalog.EnginePipeline
		w.batch = true
		w.csv = path
		w.src = graphs.ControlProgram + fmt.Sprintf("@input(\"own\").\n@bind(\"own\", \"csv\", %q).\n", path)
		w.pool = [][]ast.Fact{nil}
	case "lubm-serve":
		w.engine = vadalog.EnginePipeline
		w.src = lubm.Ontology + strings.Join(lubm.Queries(), "\n")
		for i := 0; i < lubmPool; i++ {
			w.pool = append(w.pool, lubm.Generate(lubm.Config{Universities: 1, Seed: requestSeed(seed, i)}))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// requestSeed derives the generator seed of request i from the run seed
// (splitmix64 finalizer), so neighbouring run seeds share no requests.
func requestSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// options returns the vadalog options of the workload on engine. A
// traced reasoner additionally turns on the pipeline's phase clocks and
// serves "csv" bindings through the timing driver.
func (w *workload) options(engine vadalog.Engine, tr *tracer, st *sourceStats) *vadalog.Options {
	o := &vadalog.Options{Engine: engine}
	if st != nil {
		o.PhaseTiming = true
		o.RegisterDriver("csv", timedCSV{inner: source.CSV{Comma: ','}, tr: tr, st: st})
	}
	return o
}

// compile parses and compiles the workload program: the program's own
// set-up, timed as setup_s.
func (w *workload) compile(opts *vadalog.Options) (*vadalog.Reasoner, error) {
	prog, err := vadalog.Parse(w.src)
	if err != nil {
		return nil, err
	}
	return vadalog.Compile(prog, opts)
}

// query is one untraced operation: a full reasoning run over facts plus
// reading every output predicate. The Result is returned so callers can
// keep the session's state alive for the retained-heap measurement.
func query(ctx context.Context, r *vadalog.Reasoner, facts []ast.Fact) (*vadalog.Result, map[string][]ast.Fact, error) {
	res, err := r.Query(ctx, facts)
	if err != nil {
		return nil, nil, err
	}
	return res, res.All(), nil
}

// tracedOp is what a traced operation reports besides its output.
type tracedOp struct {
	match, prepass, admit time.Duration
	strategy              core.Stats
}

// tracedQuery runs the same operation as query through the session API
// Query wraps, with a span around each layer call.
func tracedQuery(ctx context.Context, tr *tracer, r *vadalog.Reasoner, facts []ast.Fact) (out map[string][]ast.Fact, t tracedOp, err error) {
	op := tr.begin("op")
	defer tr.end(op)
	id := tr.begin("vadalog.new_session")
	s := r.NewSession()
	s.Load(facts...)
	tr.end(id)
	id = tr.begin("vadalog.run")
	err = s.RunContext(ctx)
	tr.end(id)
	if err != nil {
		return nil, t, err
	}
	id = tr.begin("vadalog.result")
	res, err := s.Result()
	if err == nil {
		out = res.All()
	}
	tr.end(id)
	if err != nil {
		return nil, t, err
	}
	t.match, t.prepass, t.admit = s.PhaseStats()
	t.strategy, _ = res.StrategyStats()
	return out, t, nil
}

// engineProbe holds the counters only the engine packages expose.
type engineProbe struct {
	derives, replans, shared int
	cands, dups, admits      int64
	store                    storageStats
}

type storageStats struct {
	stored, live, interned int
	bytes, internBytes     int64
	builds, hits, scans    int64
}

func storageOf(db *storage.Database) storageStats {
	st := storageStats{
		stored:      db.TotalFacts(),
		live:        db.LiveFacts(),
		bytes:       db.Bytes(),
		interned:    db.Interner().Len(),
		internBytes: db.Interner().Bytes(),
	}
	for _, p := range db.Predicates() {
		rel := db.Lookup(p)
		if rel.Arity() > 16 {
			continue
		}
		for mask := uint32(1); mask < 1<<rel.Arity(); mask++ {
			b, h, s := rel.IndexUsage(mask)
			st.builds += b
			st.hits += h
			st.scans += s
		}
	}
	return st
}

// probe runs pool member facts on the workload's engine package
// directly, with the options vadalog.Compile passes by default, and
// reads the counters vadalog does not surface. The output is returned
// for the digest check, so the probe is held to the same answer.
func (w *workload) probe(ctx context.Context, prog *ast.Program, facts []ast.Fact) (map[string][]ast.Fact, engineProbe, error) {
	var p engineProbe
	if w.csv != "" {
		rows, err := source.ReadAll(ctx, source.CSV{Comma: ','},
			source.Binding{Pred: "own", Driver: "csv", Target: w.csv})
		if err != nil {
			return nil, p, err
		}
		facts = make([]ast.Fact, len(rows))
		for i, row := range rows {
			facts[i] = ast.Fact{Pred: "own", Args: row}
		}
	}
	var outputOf func(string) []ast.Fact
	switch w.engine {
	case vadalog.EngineChase:
		c, err := chase.Compile(prog, chase.Options{})
		if err != nil {
			return nil, p, err
		}
		e := c.NewEngine()
		res, err := e.Run(ctx, facts)
		if err != nil {
			return nil, p, err
		}
		p.derives, p.replans, p.shared = e.PlannerStats()
		cands, dups, admits := e.Meter().ShardStats()
		for i := range cands {
			p.cands += cands[i]
			p.dups += dups[i]
			p.admits += admits[i]
		}
		p.store = storageOf(e.DB())
		outputOf = res.Output
	default:
		c, err := pipeline.Compile(prog, pipeline.Options{})
		if err != nil {
			return nil, p, err
		}
		s := c.NewSession()
		if err := s.Run(ctx, facts); err != nil {
			return nil, p, err
		}
		p.store = storageOf(s.DB())
		outputOf = s.Output
	}
	preds := prog.Outputs
	if len(preds) == 0 {
		preds = prog.IDBPreds()
	}
	out := make(map[string][]ast.Fact, len(preds))
	for pred := range preds {
		out[pred] = outputOf(pred)
	}
	return out, p, nil
}

// otherEngine is the engine used to cross-check expected digests.
func otherEngine(e vadalog.Engine) vadalog.Engine {
	if e == vadalog.EngineChase {
		return vadalog.EnginePipeline
	}
	return vadalog.EngineChase
}

// referenceDigests computes the digest of every pool member on engine.
func (w *workload) referenceDigests(ctx context.Context, engine vadalog.Engine) ([]string, error) {
	r, err := w.compile(w.options(engine, nil, nil))
	if err != nil {
		return nil, err
	}
	ds := make([]string, len(w.pool))
	for i, facts := range w.pool {
		_, out, err := query(ctx, r, facts)
		if err != nil {
			return nil, fmt.Errorf("%s on engine %d, pool member %d: %w", w.name, engine, i, err)
		}
		ds[i] = digest(out)
	}
	return ds, nil
}
