package chase

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/gen/dbpedia"
	"repro/internal/gen/graphs"
	"repro/internal/gen/iwarded"
	"repro/internal/parser"
	"repro/internal/term"
)

// dbBytes renders the full final database byte-exactly: every predicate in
// sorted order, every stored row in insertion order (retracted rows
// included, marked), nulls with their identities. Two runs agree on this
// string iff they admitted the same facts in the same order — the
// determinism contract of the parallel chase.
func dbBytes(res *Result) string {
	var sb strings.Builder
	for _, pred := range res.DB.Predicates() {
		rel := res.DB.Lookup(pred)
		fmt.Fprintf(&sb, "%s[%d]\n", pred, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			m := rel.At(i)
			if m.Retracted {
				sb.WriteString("  x ")
			} else {
				sb.WriteString("    ")
			}
			sb.WriteString(m.Fact.String())
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "derivations=%d nulls=%d\n", res.Derivations, res.DB.Nulls.Count())
	return sb.String()
}

func runParallel(t *testing.T, src string, facts []ast.Fact, workers int) *Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(context.Background(), prog, facts, Options{Parallelism: workers})
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return res
}

// parallelScenarios mirrors the examples/ scenarios (plus a rule-heavy
// iWarded instance and an EGD program): every workload class the
// repository ships — plain recursion, existentials, harmful joins,
// monotonic aggregation over floats and sets, EGD null unification.
func parallelScenarios(t *testing.T) []struct {
	name  string
	src   string
	facts []ast.Fact
} {
	t.Helper()
	ownership := graphs.ScaleFree(120, graphs.PaperParams(), 1)
	persons := dbpedia.Generate(dbpedia.Config{Companies: 60, Persons: 180,
		KeyPersonRate: 1.2, ControlRate: 0.35, Seed: 7})
	quickstart := `
		company(X) -> keyPerson(P, X).
		control(X,Y), keyPerson(P,X) -> keyPerson(P,Y).
		@output("keyPerson").
	`
	quickFacts := []ast.Fact{
		ast.NewFact("company", term.String("acme")),
		ast.NewFact("company", term.String("subco")),
		ast.NewFact("control", term.String("acme"), term.String("subco")),
		ast.NewFact("keyPerson", term.String("ada"), term.String("acme")),
	}
	egd := `
		person(X) -> hasID(X, I).
		hasID(X, I1), hasID(X, I2) -> I1 = I2.
		hasID(X, I) -> idOf(X, I).
		@output("idOf").
	`
	var egdFacts []ast.Fact
	for i := 0; i < 40; i++ {
		egdFacts = append(egdFacts, ast.NewFact("person", term.String(fmt.Sprintf("p%02d", i))))
	}
	cfg, ok := iwarded.Scenario("synthA")
	if !ok {
		t.Fatal("synthA scenario missing")
	}
	cfg.FactsPerRel = 30
	g, err := iwarded.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		src   string
		facts []ast.Fact
	}{
		{"quickstart", quickstart, quickFacts},
		{"companycontrol", graphs.ControlProgram, ownership.OwnFacts()},
		{"psc", dbpedia.PSCProgram, persons.All()},
		{"allpsc", dbpedia.AllPSCProgram, persons.All()},
		{"stronglinks", dbpedia.StrongLinksProgram(3), persons.All()},
		{"iwarded-synthA", g.Source, g.Facts},
		{"egd", egd, egdFacts},
	}
}

// TestParallelByteDeterminism is the acceptance property of the parallel
// chase: for every scenario, Parallelism ∈ {1, 2, 8} produce byte-identical
// final databases — same facts, same admission order, same null
// identities, same derivation count.
func TestParallelByteDeterminism(t *testing.T) {
	for _, sc := range parallelScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := dbBytes(runParallel(t, sc.src, sc.facts, 1))
			if !strings.Contains(base, "derivations=") || len(base) < 40 {
				t.Fatalf("vacuous database: %q", base)
			}
			for _, workers := range []int{2, 8} {
				got := dbBytes(runParallel(t, sc.src, sc.facts, workers))
				if got != base {
					t.Errorf("workers=%d diverges from workers=1 (%d vs %d bytes)",
						workers, len(got), len(base))
				}
			}
		})
	}
}

// TestShardMatrixByteDeterminism is the acceptance property of the single
// serial admission path: for every scenario, every worker count × planner
// setting produces a final database byte-identical to the serial
// planner-off run — same facts, same admission order, same null
// identities, same derivation count. (The matrix used to cross worker
// counts with duplicate-table shard counts; with one duplicate table per
// relation, the planner is the remaining axis that reorders candidates
// before admission. The name is kept.)
func TestShardMatrixByteDeterminism(t *testing.T) {
	for _, sc := range parallelScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := dbBytes(runWithOpts(t, sc.src, sc.facts, Options{Parallelism: 1, DisablePlanner: true}))
			if len(base) < 40 {
				t.Fatalf("vacuous database: %q", base)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for _, planner := range []bool{true, false} {
					if workers == 1 && !planner {
						continue
					}
					opts := Options{Parallelism: workers, DisablePlanner: !planner}
					if got := dbBytes(runWithOpts(t, sc.src, sc.facts, opts)); got != base {
						t.Errorf("workers=%d planner=%v diverges from serial planner-off (%d vs %d bytes)",
							workers, planner, len(got), len(base))
					}
				}
			}
		})
	}
}

// TestParallelShuffledAggregateDeterminism stresses the serial-admit
// guarantee under adversarial admission orders: for each shuffled EDB
// order of the AllPSC/munion scenario, every worker count yields the same
// bytes as workers=1 on that order, and all orders agree on the final
// (sorted) ground answers.
func TestParallelShuffledAggregateDeterminism(t *testing.T) {
	persons := dbpedia.Generate(dbpedia.Config{Companies: 30, Persons: 90,
		KeyPersonRate: 1.4, ControlRate: 0.5, Seed: 11})
	facts := persons.All()
	var groundBase string
	for seed := int64(1); seed <= 3; seed++ {
		order := append([]ast.Fact(nil), facts...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		res1 := runParallel(t, dbpedia.AllPSCProgram, order, 1)
		base := dbBytes(res1)
		for _, workers := range []int{2, 8} {
			if got := dbBytes(runParallel(t, dbpedia.AllPSCProgram, order, workers)); got != base {
				t.Errorf("seed %d: workers=%d diverges from workers=1", seed, workers)
			}
		}
		ground := sortedGround(res1, "pscSet")
		if groundBase == "" {
			groundBase = ground
		} else if ground != groundBase {
			t.Errorf("seed %d: final aggregates depend on admission order", seed)
		}
	}
	if groundBase == "" {
		t.Fatal("no ground answers (vacuous)")
	}
}

func sortedGround(res *Result, pred string) string {
	var lines []string
	for _, f := range res.Output(pred) {
		if f.IsGround() {
			lines = append(lines, f.String())
		}
	}
	sortStrings(lines)
	return strings.Join(lines, "\n")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestParallelConcurrentEngines runs several parallel engines (each with
// its own worker pool) concurrently over one shared Compiled — the serving
// topology — and checks all sessions agree. Run under -race this covers
// the frozen-epoch probes, the shared compiled artifact and the atomic
// meter.
func TestParallelConcurrentEngines(t *testing.T) {
	ownership := graphs.ScaleFree(80, graphs.PaperParams(), 3)
	prog := parser.MustParse(graphs.ControlProgram)
	c, err := Compile(prog, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	out := make([]string, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res, err := c.NewEngine().Run(context.Background(), ownership.OwnFacts())
			if err != nil {
				errs[k] = err
				return
			}
			out[k] = dbBytes(res)
		}(k)
	}
	wg.Wait()
	for k := 0; k < sessions; k++ {
		if errs[k] != nil {
			t.Fatalf("session %d: %v", k, errs[k])
		}
		if out[k] != out[0] {
			t.Errorf("session %d diverges from session 0", k)
		}
	}
}

// TestParallelBudgetExceeded: the derivation budget still trips under the
// batched scheduler, whatever the worker count.
func TestParallelBudgetExceeded(t *testing.T) {
	prog := parser.MustParse("a(X), a(Y) -> pair(X,Y).")
	var edb []ast.Fact
	for i := 0; i < 100; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	for _, workers := range []int{1, 8} {
		_, err := Run(context.Background(), prog, edb, Options{MaxDerivations: 50, Parallelism: workers})
		if !errors.Is(err, ErrBudget) {
			t.Errorf("workers=%d: want ErrBudget, got %v", workers, err)
		}
	}
}

// TestParallelCancellation: cancelling mid-run aborts between batches with
// all worker goroutines joined.
func TestParallelCancellation(t *testing.T) {
	prog := parser.MustParse("a(X), a(Y) -> pair(X,Y).")
	var edb []ast.Fact
	for i := 0; i < 200; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, prog, edb, Options{Parallelism: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestParallelSkolemBodyAssignments pins the serial-path routing: rules
// whose bodies mint Skolem nulls while matching are not parallel-safe and
// must still produce deterministic, worker-count-independent results.
func TestParallelSkolemBodyAssignments(t *testing.T) {
	src := `
		p(X), Z = #f(X) -> q(X, Z).
		q(X, Z), p(Y), W = #g(Z, Y) -> r(X, Y, W).
	`
	var edb []ast.Fact
	for i := 0; i < 12; i++ {
		edb = append(edb, ast.NewFact("p", term.Int(int64(i))))
	}
	base := dbBytes(runParallel(t, src, edb, 1))
	for _, workers := range []int{2, 8} {
		if got := dbBytes(runParallel(t, src, edb, workers)); got != base {
			t.Errorf("workers=%d diverges on skolem-body program", workers)
		}
	}
	if !strings.Contains(base, "r[") {
		t.Fatalf("skolem chain produced no r facts:\n%s", base)
	}
}

// TestTightBudgetDuplicateHeavyBatch: candidate buffering is a runaway
// backstop, never a budget check — a duplicate-heavy program that admits
// few facts must complete under a tight MaxDerivations even though its
// batches enumerate far more candidate matches than the budget.
func TestTightBudgetDuplicateHeavyBatch(t *testing.T) {
	// Every (a, a) pair matches, but all firings emit the same single
	// fact: thousands of candidates, one admission.
	prog := parser.MustParse("a(X), a(Y) -> one(\"yes\").")
	var edb []ast.Fact
	for i := 0; i < 60; i++ {
		edb = append(edb, ast.NewFact("a", term.Int(int64(i))))
	}
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), prog, edb, Options{MaxDerivations: 61, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := len(res.Output("one")); got != 1 {
			t.Errorf("workers=%d: %d facts, want 1", workers, got)
		}
	}
}

// stepCtx is a context whose Err starts reporting Canceled after the
// n-th poll — a deterministic way to cancel mid-run. Err must be
// goroutine-safe like any real context's (match workers poll it).
type stepCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *stepCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelResumeLosesNoDeltas: cancelling mid-batch must not drop the
// in-flight deltas — a resumed Run picks the batch back up and quiesces
// with exactly the ground answers of an uninterrupted run.
func TestCancelResumeLosesNoDeltas(t *testing.T) {
	ownership := graphs.ScaleFree(100, graphs.PaperParams(), 5)
	prog := parser.MustParse(graphs.ControlProgram)
	clean := runParallel(t, graphs.ControlProgram, ownership.OwnFacts(), 4)
	want := sortedGround(clean, "control")
	if want == "" {
		t.Fatal("vacuous scenario")
	}
	for _, after := range []int64{1, 3, 25} {
		c, err := Compile(prog, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		e := c.NewEngine()
		_, err = e.Run(&stepCtx{Context: context.Background(), after: after}, ownership.OwnFacts())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: want cancellation, got %v", after, err)
		}
		res, err := e.Run(context.Background(), nil)
		if err != nil {
			t.Fatalf("after=%d: resume: %v", after, err)
		}
		if got := sortedGround(res, "control"); got != want {
			t.Errorf("after=%d: resumed run lost derivations (%d vs %d bytes)",
				after, len(got), len(want))
		}
	}
}

// TestShardCancelResumeDeterminism: a run cancelled mid-batch and resumed
// must converge to the same bytes whatever the worker count and planner
// setting — the requeue boundary may not interact with the parallel match
// phase or the join order, since every candidate still reaches the one
// serial admission path in canonical order. (Before that path became the
// only one, the same property was checked across duplicate-table shard
// counts; the name is kept.)
func TestShardCancelResumeDeterminism(t *testing.T) {
	ownership := graphs.ScaleFree(100, graphs.PaperParams(), 5)
	prog := parser.MustParse(graphs.ControlProgram)
	want := sortedGround(runParallel(t, graphs.ControlProgram, ownership.OwnFacts(), 1), "control")
	if want == "" {
		t.Fatal("vacuous scenario")
	}
	for _, after := range []int64{1, 3, 25} {
		var base string
		for _, opts := range []Options{
			{Parallelism: 1},
			{Parallelism: 2},
			{Parallelism: 4},
			{Parallelism: 4, DisablePlanner: true},
		} {
			c, err := Compile(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			e := c.NewEngine()
			_, err = e.Run(&stepCtx{Context: context.Background(), after: after}, ownership.OwnFacts())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("after=%d %+v: want cancellation, got %v", after, opts, err)
			}
			res, err := e.Run(context.Background(), nil)
			if err != nil {
				t.Fatalf("after=%d %+v: resume: %v", after, opts, err)
			}
			if got := sortedGround(res, "control"); got != want {
				t.Errorf("after=%d %+v: resumed run lost derivations", after, opts)
			}
			if got := dbBytes(res); base == "" {
				base = got
			} else if got != base {
				t.Errorf("after=%d workers=%d planner-off=%v: resumed database diverges from workers=1 (%d vs %d bytes)",
					after, opts.Parallelism, opts.DisablePlanner, len(got), len(base))
			}
		}
	}
}

// TestShardPhaseStats: the engine accounts wall time to the match and
// admit phases, and the meter's admission counters (reported through
// ShardStats as one-element slices) are consistent with the run.
func TestShardPhaseStats(t *testing.T) {
	ownership := graphs.ScaleFree(1200, graphs.PaperParams(), 2)
	prog := parser.MustParse(graphs.ControlProgram)
	c, err := Compile(prog, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := c.NewEngine()
	if _, err := e.Run(context.Background(), ownership.OwnFacts()); err != nil {
		t.Fatal(err)
	}
	match, admit := e.PhaseStats()
	if match <= 0 || admit <= 0 {
		t.Errorf("phase stats not accumulated: match=%v admit=%v", match, admit)
	}
	cands, dups, admits := e.Meter().ShardStats()
	if len(cands) != 1 || len(dups) != 1 || len(admits) != 1 {
		t.Fatalf("want one-element counter slices, got %d/%d/%d", len(cands), len(dups), len(admits))
	}
	if admits[0] <= 0 {
		t.Error("no admissions recorded")
	}
	if admits[0] > int64(e.Derivations()) {
		t.Errorf("admissions %d exceed derivations %d", admits[0], e.Derivations())
	}
	if cands[0] < dups[0]+admits[0] {
		t.Errorf("candidates %d < duplicates %d + admissions %d", cands[0], dups[0], admits[0])
	}
}
