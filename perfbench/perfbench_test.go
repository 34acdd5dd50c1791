package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/term"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 0.95}, {200, 0.95}, {100, 0.9}, {50, 0.8}, {20, 0.5}, {11, 0.5}, {3, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Above the median floor, at least ten samples always lie beyond the
	// reported quantile.
	for n := 20; n <= 2000; n++ {
		if q := tailQuantile(n); q > 0.5 && float64(n)*(1-q) < 10-1e-9 {
			t.Fatalf("n=%d: quantile %v leaves %.2f samples beyond it", n, q, float64(n)*(1-q))
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

// TestQuartiles pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{3, 7.5}, [3]float64{1.875, 5.25, 8.625}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func sp(id, parent, op int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(1, 0, 1, "op", 0, 100),
		sp(2, 1, 1, "run", 10, 70), // nested under op
		sp(3, 2, 1, "next", 20, 30),
		sp(4, 2, 1, "next", 40, 45), // sibling of span 3
		sp(5, 1, 1, "result", 70, 90),
		sp(6, 0, 2, "op", 0, 50), // another operation
		sp(7, 6, 2, "run", 0, 50),
	}
	self := selfTimes(spans)
	want1 := map[string]time.Duration{"op": 100 - 60 - 20, "run": 60 - 15, "next": 15, "result": 20}
	for name, d := range want1 {
		if got := self[1][name]; got != d {
			t.Errorf("op 1 %s self = %v, want %v", name, got, d)
		}
	}
	if got := self[2]["op"]; got != 0 {
		t.Errorf("op 2 op self = %v, want 0", got)
	}
	if got := self[2]["run"]; got != 50 {
		t.Errorf("op 2 run self = %v, want 50", got)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 1, "parent", 0, 100),
		sp(2, 1, 1, "a", 10, 40),
		sp(3, 1, 1, "b", 30, 60),  // overlaps a: the union is 10..60
		sp(4, 1, 1, "c", 90, 120), // runs past the parent: clipped to 90..100
	}
	if got := selfTimes(spans)[1]["parent"]; got != 100-50-10 {
		t.Errorf("parent self = %v, want 40", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setOp(7)
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	c := tr.begin("c")
	tr.end(c)
	tr.end(a)
	if tr.spans[b-1].Parent != a || tr.spans[c-1].Parent != a || tr.spans[a-1].Parent != 0 {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != 7 || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestDigestInvariance(t *testing.T) {
	null := func(id int64) term.Value { return term.Null(id) }
	s := term.String
	base := map[string][]ast.Fact{
		"p": {
			ast.NewFact("p", s("a"), s("b")),
			ast.NewFact("p", s("b"), null(1)),
			ast.NewFact("p", s("c"), s("d")),
		},
		"q": {
			ast.NewFact("q", null(1), null(2)),
			ast.NewFact("q", s("a"), term.Int(3)),
		},
	}
	want := digest(base)

	// Reordered facts and renumbered nulls.
	shuffled := map[string][]ast.Fact{
		"q": {
			ast.NewFact("q", s("a"), term.Int(3)),
			ast.NewFact("q", null(40), null(17)),
		},
		"p": {
			ast.NewFact("p", s("c"), s("d")),
			ast.NewFact("p", s("a"), s("b")),
			ast.NewFact("p", s("b"), null(99)),
		},
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled["p"]), func(i, j int) {
		shuffled["p"][i], shuffled["p"][j] = shuffled["p"][j], shuffled["p"][i]
	})
	if got := digest(shuffled); got != want {
		t.Errorf("digest changed under reordering and null renumbering: %s vs %s", got, want)
	}

	// A changed constant, a missing null fact, or a fact moved to another
	// predicate all change the digest.
	for name, out := range map[string]map[string][]ast.Fact{
		"constant": {"p": {base["p"][0], base["p"][1], ast.NewFact("p", s("c"), s("e"))}, "q": base["q"]},
		"count":    {"p": base["p"], "q": base["q"][1:]},
		"moved":    {"p": base["p"][:2], "q": append([]ast.Fact{ast.NewFact("q", s("c"), s("d"))}, base["q"]...)},
	} {
		if digest(out) == want {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this benchmark produces.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloadNames))
	}
	for i := 0; i < len(b.Workloads) && i < len(workloadNames); i++ {
		if b.Workloads[i].Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, b.Workloads[i].Name, workloadNames[i])
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the benchmark produces %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json says %s in %s, the benchmark %s in %s",
					what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestRequestSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for i := 0; i < lubmPool; i++ {
			r := requestSeed(seed, i)
			if seen[r] {
				t.Fatalf("request seed %d repeats (seed %d, request %d)", r, seed, i)
			}
			seen[r] = true
		}
	}
}

func TestRecordedDigestsParse(t *testing.T) {
	var rec map[string][]string
	if err := json.Unmarshal(expectedJSON, &rec); err != nil {
		t.Fatal(err)
	}
	if defaultSeed < recordLo || defaultSeed > recordHi {
		t.Errorf("the default seed %d is outside the recorded range %d-%d", defaultSeed, recordLo, recordHi)
	}
	for _, name := range workloadNames {
		for seed := recordLo; seed <= recordHi; seed++ {
			if _, ok := rec[fmt.Sprintf("%s/%d", name, seed)]; !ok {
				t.Errorf("%s seed %d is not recorded", name, seed)
			}
		}
	}
}
