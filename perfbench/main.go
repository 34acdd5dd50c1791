// Command perfbench is the repository's benchmark: it runs one of three
// seeded workloads drawn from the paper's evaluation (iWarded on the
// chase engine, company control over a CSV-bound scale-free graph on the
// pipeline, and LUBM served request by request), checks every
// operation's output against recorded digests, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload iwarded-chase --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that records spans around every layer call, writes them
// under .bench_build/spans and reports the per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	_ "embed"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/vadalog"
)

// defaultSeed is the seed the recorded claims of later changes are made
// on; a claim is re-checked on a held-out seed by passing another.
const defaultSeed = 1

// recordLo and recordHi bound the seeds --record records for every
// workload; expected.json holds this range. Other seeds get their
// expected digests from the other engine at start-up.
const recordLo, recordHi = 0, 20

// Set-up is timed in two windows, before and after the timed
// operations, so one moment of host contention cannot set setup_s. Each
// window parses and compiles the program at least setupReps times and
// until the repetitions add up to setupBudget (at most setupMaxReps
// times); the median over both windows is reported. Set-up takes from
// tens of microseconds to milliseconds, so a fixed count would leave the
// cheap programs' median to a few scheduler hiccups.
const (
	setupReps    = 25
	setupMaxReps = 1000
	setupBudget  = 100 * time.Millisecond
)

// minOps is the least number of timed operations a run makes, whatever
// --seconds says, so a slow program still yields a median of several.
const minOps = 5

//go:embed expected.json
var expectedJSON []byte

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics of an untraced and of a traced
// run, in the order BENCHMARK.json lists them; a run whose metric set
// differs is a bug in the benchmark and fails.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"op_p95_ms", "ms"}, {"facts_per_s", "1/s"},
		{"queries_per_s", "1/s"}, {"allocs_per_op", "count"}, {"alloc_bytes_per_op", "B"},
		{"retained_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"parser.parse_ms", "ms"}, {"rewrite.apply_ms", "ms"}, {"analysis.analyze_ms", "ms"},
		{"chase.compile_ms", "ms"}, {"pipeline.compile_ms", "ms"}, {"vadalog.compile_ms", "ms"},
		{"vadalog.new_session_ms", "ms"}, {"vadalog.run_ms", "ms"}, {"vadalog.result_ms", "ms"},
		{"source.open_ms", "ms"}, {"source.next_ms", "ms"}, {"source.opens", "count"}, {"source.nexts", "count"}, {"source.rows", "count"},
		{"source.chunks", "count"}, {"source.retries", "count"}, {"source.rows_per_s", "1/s"},
		{"chase.match_ms", "ms"}, {"chase.prepass_ms", "ms"}, {"chase.admit_ms", "ms"},
		{"pipeline.match_ms", "ms"},
		{"planner.derives", "count"}, {"planner.replans", "count"}, {"planner.shared_firings", "count"},
		{"core.checked", "count"}, {"core.iso_checks", "count"}, {"core.iso_hits", "count"},
		{"core.beyond_stop", "count"}, {"core.new_trees", "count"}, {"core.ground_facts", "count"},
		{"core.patterns", "count"}, {"core.iso_hit_ratio", "ratio"},
		{"core.candidates", "count"}, {"core.dup_candidates", "count"}, {"core.admitted", "count"},
		{"core.admit_ratio", "ratio"},
		{"storage.stored_rows", "count"}, {"storage.live_facts", "count"}, {"storage.live_ratio", "ratio"},
		{"storage.bytes", "B"}, {"storage.interned_values", "count"}, {"storage.interner_bytes", "B"},
		{"storage.index_builds", "count"}, {"storage.index_hits", "count"}, {"storage.index_scans", "count"},
		{"storage.index_hit_ratio", "ratio"},
		{"runtime.gc_cycles_per_op", "count"}, {"runtime.gc_cpu_fraction", "ratio"}, {"runtime.gc_pause_ms", "ms"},
		{"trace.op_p50_ms", "ms"}, {"trace.untraced_op_p50_ms", "ms"}, {"trace.overhead_ms", "ms"},
	}
)

// withUnits attaches the declared units to a run's values; it fails
// unless values holds exactly the metrics in defs.
func withUnits(values map[string]float64, defs []metricDef) (map[string]metric, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("run produced %d metrics, want %d", len(values), len(defs))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("run produced no metric %q", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: iwarded-chase, control-csv or lubm-serve")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		spans   = flag.String("spans", "", "span output file of a traced run (default .bench_build/spans/<workload>-seed<N>.jsonl)")
		data    = flag.String("data", filepath.Join(".bench_build", "data"), "directory for generated input files")
		record  = flag.String("record", "", "record expected digests for seeds 0-20 of every workload, cross-checked on both engines, into this file")
		spreadF = flag.String("spread", "", "print per-metric quartile spreads of the result lines in this file and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *spreadF != "":
		err = printSpread(*spreadF)
	case *record != "":
		err = recordExpected(*record, *data)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1")
	default:
		var res *result
		res, err = run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans, *data)
		if err == nil {
			var line []byte
			line, err = json.Marshal(res)
			if err == nil {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// checker compares operation outputs with the expected digests and
// counts attempts and failures.
type checker struct {
	want              []string
	attempted, failed int
}

// check records one operation on pool member i; err is the operation's
// error, if any. It reports whether the operation succeeded.
func (c *checker) check(i int, out map[string][]ast.Fact, err error) bool {
	c.attempted++
	if err == nil {
		if got := digest(out); got != c.want[i] {
			err = fmt.Errorf("digest %s, want %s", got, c.want[i])
		}
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation %d (pool member %d) failed: %v\n", c.attempted, i, err)
		return false
	}
	return true
}

// expectedDigests returns the recorded digests of w's seed, or computes
// them on the other engine when the seed was not recorded.
func expectedDigests(ctx context.Context, w *workload) ([]string, error) {
	var recorded map[string][]string
	if err := json.Unmarshal(expectedJSON, &recorded); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if ds, ok := recorded[fmt.Sprintf("%s/%d", w.name, w.seed)]; ok && len(ds) == len(w.pool) {
		return ds, nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: seed %d of %s not recorded; expected digests come from the other engine\n", w.seed, w.name)
	return w.referenceDigests(ctx, otherEngine(w.engine))
}

func run(name string, seed int64, dur time.Duration, traced bool, spansPath, dataDir string) (*result, error) {
	ctx := context.Background()
	w, err := buildWorkload(name, seed, dataDir)
	if err != nil {
		return nil, err
	}
	if w.csv != "" {
		defer os.Remove(w.csv)
	}
	want, err := expectedDigests(ctx, w)
	if err != nil {
		return nil, err
	}
	chk := &checker{want: want}
	var values map[string]float64
	defs := endToEnd
	if traced {
		if spansPath == "" {
			spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		}
		values, err = runTraced(ctx, w, chk, dur, spansPath)
		defs = perLayer
	} else {
		values, err = runPlain(ctx, w, chk, dur)
	}
	if err != nil {
		return nil, err
	}
	m, err := withUnits(values, defs)
	if err != nil {
		return nil, err
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

// runPlain measures the end-to-end metrics with no tracing.
func runPlain(ctx context.Context, w *workload, chk *checker, dur time.Duration) (map[string]float64, error) {
	opts := w.options(w.engine, nil, nil)
	setup, r, err := timeSetup(w, opts)
	if err != nil {
		return nil, err
	}

	// Warm-up, then the retained-heap measurement over every pool member
	// (outside the timed loop: both force collections).
	_, out, err := query(ctx, r, w.pool[0])
	chk.check(0, out, err)
	var retained []float64
	for i, facts := range w.pool {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, out, err := query(ctx, r, facts)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		if chk.check(i, out, err) {
			retained = append(retained, float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/(1<<20))
		}
		runtime.KeepAlive(res)
	}

	var lat, allocs, bytes []float64
	var busy time.Duration
	derived := 0
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline) || len(lat) < minOps; i++ {
		if chk.attempted > 4*minOps && len(lat) == 0 {
			break // every operation fails; stop rather than spin
		}
		pi := i % len(w.pool)
		w.settle()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, out, err := query(ctx, r, w.pool[pi])
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if !chk.check(pi, out, err) {
			continue
		}
		lat = append(lat, ms(d))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		busy += d
		derived += res.Derivations()
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation of %s succeeded (%d attempted)", w.name, chk.attempted)
	}
	more, _, err := timeSetup(w, opts)
	if err != nil {
		return nil, err
	}
	setup = append(setup, more...)
	q := tailQuantile(len(lat))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d set-ups, %d timed operations (ms: min %.1f, median %.1f, max %.1f), tail quantile p%.0f\n",
		w.name, w.seed, len(setup), len(lat), quantile(lat, 0), median(lat), quantile(lat, 1), 100*q)
	return map[string]float64{
		"setup_s":            median(setup),
		"op_p50_ms":          median(lat),
		"op_p95_ms":          quantile(lat, q),
		"facts_per_s":        float64(derived) / busy.Seconds(),
		"queries_per_s":      float64(len(lat)) / busy.Seconds(),
		"allocs_per_op":      mean(allocs),
		"alloc_bytes_per_op": mean(bytes),
		"retained_heap_mb":   mean(retained),
	}, nil
}

// timeSetup is one set-up window: it parses and compiles the program
// repeatedly and returns each repetition's time in seconds and the last
// Reasoner. Each repetition starts from a collected heap, as set-up at
// program start does: neither input generation's garbage nor the previous
// repetition's is charged to it.
func timeSetup(w *workload, opts *vadalog.Options) ([]float64, *vadalog.Reasoner, error) {
	var times []float64
	var total time.Duration
	var r *vadalog.Reasoner
	for len(times) < setupReps || (total < setupBudget && len(times) < setupMaxReps) {
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = w.compile(opts)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		total += d
	}
	return times, r, nil
}

// tracedSetup times each set-up layer by calling it from outside: the
// parser, the rewriter and the analysis on the parsed program, the
// engine's own compile (which repeats rewriting and analysis inside),
// and vadalog.Compile, which the traced operations use.
func tracedSetup(tr *tracer, w *workload, opts *vadalog.Options) (*vadalog.Reasoner, *ast.Program, error) {
	var r *vadalog.Reasoner
	var prog *ast.Program
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		tr.setOp(setupOp(k))
		root := tr.begin("setup")
		id := tr.begin("parser.parse")
		p, err := parser.Parse(w.src)
		tr.end(id)
		if err != nil {
			tr.end(root)
			return nil, nil, err
		}
		id = tr.begin("rewrite.apply")
		rw, err := rewrite.Apply(p, rewrite.DefaultOptions())
		tr.end(id)
		if err != nil {
			tr.end(root)
			return nil, nil, err
		}
		id = tr.begin("analysis.analyze")
		analysis.Analyze(rw.Program)
		tr.end(id)
		if w.engine == vadalog.EngineChase {
			id = tr.begin("chase.compile")
			_, err = chase.Compile(p, chase.Options{})
		} else {
			id = tr.begin("pipeline.compile")
			_, err = pipeline.Compile(p, pipeline.Options{})
		}
		tr.end(id)
		if err == nil {
			id = tr.begin("vadalog.compile")
			r, err = vadalog.Compile(p, opts)
			tr.end(id)
		}
		tr.end(root)
		if err != nil {
			return nil, nil, err
		}
		prog = p
	}
	return r, prog, nil
}

// runTraced is the traced run: traced and untraced operations alternate
// on the same inputs (their median difference is the tracing overhead),
// then the engine probes read the counters vadalog hides.
func runTraced(ctx context.Context, w *workload, chk *checker, dur time.Duration, spansPath string) (map[string]float64, error) {
	tr := newTracer()
	st := &sourceStats{}
	r, prog, err := tracedSetup(tr, w, w.options(w.engine, tr, st))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := w.compile(w.options(w.engine, nil, nil))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// One warm-up operation of each kind.
	tr.setOp(0)
	out, _, err := tracedQuery(ctx, tr, r, w.pool[0])
	chk.check(0, out, err)
	_, out, err = query(ctx, plain, w.pool[0])
	chk.check(0, out, err)
	setupSelf := setupMedians(tr)

	var tracedLat, plainLat []float64
	var okOps []int // span op ids of the traced operations that succeeded
	var ops []tracedOp
	var srcPerOp []sourceStats
	// GC is counted per operation, from after settle() to the end of the
	// operation, so the collections settle() forces are left out.
	var gcCycles, gcPause uint64
	var gcTime, cpuTotal float64
	loopStart := time.Now()
	deadline := loopStart.Add(dur)
	nOps := 0
	for i := 0; time.Now().Before(deadline) || len(tracedLat) < minOps; i++ {
		if chk.attempted > 8*minOps && len(tracedLat) == 0 {
			break
		}
		pi := (i / 2) % len(w.pool)
		nOps++
		w.settle()
		var gc0, gc1 runtime.MemStats
		runtime.ReadMemStats(&gc0)
		cpu0 := gcCPU()
		gcDelta := func() {
			cpu1 := gcCPU()
			runtime.ReadMemStats(&gc1)
			gcCycles += uint64(gc1.NumGC - gc0.NumGC)
			gcPause += gc1.PauseTotalNs - gc0.PauseTotalNs
			gcTime += cpu1[0] - cpu0[0]
			cpuTotal += cpu1[1] - cpu0[1]
		}
		if i%2 == 1 {
			t0 := time.Now()
			_, out, err := query(ctx, plain, w.pool[pi])
			d := time.Since(t0)
			gcDelta()
			if chk.check(pi, out, err) {
				plainLat = append(plainLat, ms(d))
			}
			continue
		}
		*st = sourceStats{}
		tr.setOp(i + 1)
		t0 := time.Now()
		out, t, err := tracedQuery(ctx, tr, r, w.pool[pi])
		d := time.Since(t0)
		gcDelta()
		if chk.check(pi, out, err) {
			tracedLat = append(tracedLat, ms(d))
			okOps = append(okOps, i+1)
			ops = append(ops, t)
			srcPerOp = append(srcPerOp, *st)
		}
	}
	loopWall := time.Since(loopStart)
	if len(tracedLat) == 0 || len(plainLat) == 0 {
		return nil, fmt.Errorf("no operation of %s succeeded (%d attempted)", w.name, chk.attempted)
	}

	// Engine probes: once per pool member, on the engine package directly.
	var probes []engineProbe
	for i, facts := range w.pool {
		out, p, err := w.probe(ctx, prog, facts)
		if chk.check(i, out, err) {
			probes = append(probes, p)
		}
	}

	if err := tr.writeSpans(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	self := selfTimes(tr.spans)
	layer := func(name string) float64 {
		var xs []float64
		for _, op := range okOps {
			xs = append(xs, ms(self[op][name]))
		}
		return median(xs)
	}

	m := map[string]float64{}
	for _, n := range []string{"parser.parse", "rewrite.apply", "analysis.analyze", "chase.compile", "pipeline.compile", "vadalog.compile"} {
		m[n+"_ms"] = setupSelf[n]
	}
	for _, n := range []string{"vadalog.new_session", "vadalog.run", "vadalog.result", "source.open", "source.next"} {
		m[n+"_ms"] = layer(n)
	}

	var opens, nexts, rows, chunks, retries float64
	for _, s := range srcPerOp {
		opens += float64(s.opens)
		nexts += float64(s.nexts)
		rows += float64(s.rows)
		chunks += float64(s.chunks)
		retries += float64(s.retries)
	}
	var srcTime time.Duration // source.* spans have no children
	for _, op := range okOps {
		srcTime += self[op]["source.open"] + self[op]["source.next"]
	}
	n := float64(len(srcPerOp))
	m["source.opens"] = opens / n
	m["source.nexts"] = nexts / n
	m["source.rows"] = rows / n
	m["source.chunks"] = chunks / n
	m["source.retries"] = retries / n
	m["source.rows_per_s"] = ratio(rows, srcTime.Seconds())

	var match, prepass, admit []float64
	for _, t := range ops {
		match = append(match, ms(t.match))
		prepass = append(prepass, ms(t.prepass))
		admit = append(admit, ms(t.admit))
	}
	// Session.PhaseStats reports the engine the session runs; the other
	// engine's layer did not run.
	for _, n := range []string{"chase.match_ms", "chase.prepass_ms", "chase.admit_ms", "pipeline.match_ms"} {
		m[n] = 0
	}
	if w.engine == vadalog.EngineChase {
		m["chase.match_ms"], m["chase.prepass_ms"], m["chase.admit_ms"] = median(match), median(prepass), median(admit)
	} else {
		m["pipeline.match_ms"] = median(match)
	}

	var core [7]float64
	for _, t := range ops {
		s := t.strategy
		for i, v := range []int{s.Checked, s.IsoChecks, s.IsoHits, s.BeyondStop, s.NewTrees, s.GroundFacts, s.Patterns} {
			core[i] += float64(v)
		}
	}
	for i, n := range []string{"checked", "iso_checks", "iso_hits", "beyond_stop", "new_trees", "ground_facts", "patterns"} {
		m["core."+n] = core[i] / float64(len(ops))
	}
	m["core.iso_hit_ratio"] = ratio(core[2], core[1])

	var pr [14]float64
	for _, p := range probes {
		s := p.store
		for i, v := range []float64{float64(p.derives), float64(p.replans), float64(p.shared),
			float64(p.cands), float64(p.dups), float64(p.admits),
			float64(s.stored), float64(s.live), float64(s.bytes), float64(s.interned), float64(s.internBytes),
			float64(s.builds), float64(s.hits), float64(s.scans)} {
			pr[i] += v / float64(len(probes))
		}
	}
	for i, n := range []string{"planner.derives", "planner.replans", "planner.shared_firings",
		"core.candidates", "core.dup_candidates", "core.admitted",
		"storage.stored_rows", "storage.live_facts", "storage.bytes", "storage.interned_values", "storage.interner_bytes",
		"storage.index_builds", "storage.index_hits", "storage.index_scans"} {
		m[n] = pr[i]
	}
	m["core.admit_ratio"] = ratio(pr[5], pr[3])
	m["storage.live_ratio"] = ratio(pr[7], pr[6])
	m["storage.index_hit_ratio"] = ratio(pr[12], pr[12]+pr[13])

	ops2 := float64(nOps)
	m["runtime.gc_cycles_per_op"] = float64(gcCycles) / ops2
	m["runtime.gc_pause_ms"] = float64(gcPause) / 1e6 / ops2
	m["runtime.gc_cpu_fraction"] = ratio(gcTime, cpuTotal)

	tp50, pp50 := median(tracedLat), median(plainLat)
	m["trace.op_p50_ms"] = tp50
	m["trace.untraced_op_p50_ms"] = pp50
	m["trace.overhead_ms"] = tp50 - pp50
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: %d traced + %d untraced operations in %v, spans in %s\n",
		w.name, w.seed, len(tracedLat), len(plainLat), loopWall.Round(time.Millisecond), spansPath)
	return m, nil
}

// setupMedians returns the median self time, in ms, of every set-up
// layer span over the set-up repetitions (0 for a layer that never ran).
func setupMedians(tr *tracer) map[string]float64 {
	self := selfTimes(tr.spans)
	per := map[string][]float64{}
	for k := 0; k < setupReps; k++ {
		for name, d := range self[setupOp(k)] {
			per[name] = append(per[name], ms(d))
		}
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gcCPU reads the runtime's cumulative GC CPU time and total CPU time.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}
