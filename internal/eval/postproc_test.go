package eval

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// keyAndKinds renders a fact as its Key and its argument kinds: the
// reference order of ApplyPost's default sort, and an exact rendering of
// the fact for comparing outputs.
func keyAndKinds(f ast.Fact) [2]string {
	kinds := make([]byte, len(f.Args))
	for i, v := range f.Args {
		kinds[i] = byte(v.Kind())
	}
	return [2]string{f.Key(), string(kinds)}
}

func sameFact(a, b ast.Fact) bool { return keyAndKinds(a) == keyAndKinds(b) }

func randomValue(rng *rand.Rand) term.Value {
	switch rng.Intn(11) {
	case 0:
		return term.String([]string{"a", "b", "d5", "1", "", "a b", "x\x00y", "é", "{1}", "_:n1"}[rng.Intn(10)])
	case 1:
		return term.Int(int64(rng.Intn(21) - 10))
	case 2:
		return term.Float([]float64{1, -1, 0.5, 5, math.Copysign(0, -1), 0, math.Inf(1), 1e21}[rng.Intn(8)])
	case 3:
		return term.Float(math.NaN())
	case 4:
		return term.Date(int64(rng.Intn(11) - 5))
	case 5:
		return term.Bool(rng.Intn(2) == 0)
	case 6:
		return term.Null(int64(rng.Intn(12)))
	case 7:
		return term.Set([]term.Value{term.Int(int64(rng.Intn(3))), term.Float(1)})
	case 8:
		return term.Set([]term.Value{term.String("a b"), term.Int(int64(rng.Intn(3)))})
	default:
		return term.Int(int64(rng.Intn(3)))
	}
}

// TestApplyPostOrderMatchesKeyOrder: on random facts of every kind the
// default order equals a reference sort by (Key, argument kinds).
func TestApplyPostOrderMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 200; round++ {
		facts := make([]ast.Fact, rng.Intn(60))
		for i := range facts {
			args := make([]term.Value, rng.Intn(4))
			for j := range args {
				args[j] = randomValue(rng)
			}
			facts[i] = ast.NewFact([]string{"p", "pq", "p_"}[rng.Intn(3)], args...)
		}
		want := make([][2]string, len(facts))
		for i, f := range facts {
			want[i] = keyAndKinds(f)
		}
		slices.SortFunc(want, func(a, b [2]string) int {
			return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
		})
		got := ApplyPost(slices.Clone(facts), nil, "p", nil)
		for i, f := range got {
			if k := keyAndKinds(f); k != want[i] {
				t.Fatalf("round %d: position %d is %q, want %q", round, i, k, want[i])
			}
		}
	}
}

// TestApplyPostSortAllocations: sorting N facts over D distinct values
// allocates O(D) (one rendering per value), not O(N log N).
func TestApplyPostSortAllocations(t *testing.T) {
	const n, d = 10_000, 100
	facts := make([]ast.Fact, n)
	for i := range facts {
		// Ints above 99 and quoted strings allocate when rendered.
		x, y := term.Int(int64(1000+i%(d/2))), term.String(fmt.Sprintf("v %d", (i*7)%(d/2)))
		facts[i] = ast.NewFact("p", y, x)
	}
	in := make([]ast.Fact, n)
	allocs := testing.AllocsPerRun(5, func() {
		copy(in, facts)
		ApplyPost(in, nil, "p", nil)
	})
	if allocs > 200 {
		t.Errorf("ApplyPost allocated %.0f times for %d facts over %d values, want <= 200", allocs, n, d)
	}
}

// TestApplyPostDedupKeepsDistinctKinds: after an EGD substitution,
// duplicate elimination goes by value identity, so p(a,1) and p(a,1.0)
// both survive while exact duplicates are dropped, NaNs included.
func TestApplyPostDedupKeepsDistinctKinds(t *testing.T) {
	subst := NewNullSubst()
	if err := subst.Unify(term.Null(1), term.String("a")); err != nil {
		t.Fatal(err)
	}
	facts := []ast.Fact{
		ast.NewFact("p", term.Null(1), term.Int(1)),
		ast.NewFact("p", term.String("a"), term.Float(1)),
		ast.NewFact("p", term.String("a"), term.Int(1)),
		ast.NewFact("p", term.Null(1), term.Float(math.NaN())),
		ast.NewFact("p", term.String("a"), term.Float(math.NaN())),
	}
	got := ApplyPost(facts, nil, "p", subst)
	want := []ast.Fact{
		ast.NewFact("p", term.String("a"), term.Int(1)),
		ast.NewFact("p", term.String("a"), term.Float(1)),
		ast.NewFact("p", term.String("a"), term.Float(math.NaN())),
	}
	if !slices.EqualFunc(got, want, sameFact) {
		t.Errorf("dedup: got %v, want %v", got, want)
	}
}

// TestApplyPostKeepMaxGroupsByIdentity: keepMax groups by value
// identity, so rows differing only in Int(1) vs Float(1) outside the
// aggregated column are separate groups and both survive.
func TestApplyPostKeepMaxGroupsByIdentity(t *testing.T) {
	facts := []ast.Fact{
		ast.NewFact("p", term.String("a"), term.Int(1), term.Int(5)),
		ast.NewFact("p", term.String("a"), term.Float(1), term.Int(3)),
		ast.NewFact("p", term.String("a"), term.Int(1), term.Int(4)),
	}
	posts := []ast.PostDirective{{Pred: "p", Kind: "keepMax", Arg: 3}}
	got := ApplyPost(facts, posts, "p", nil)
	want := []ast.Fact{
		ast.NewFact("p", term.String("a"), term.Float(1), term.Int(3)),
		ast.NewFact("p", term.String("a"), term.Int(1), term.Int(5)),
	}
	if !slices.EqualFunc(got, want, sameFact) {
		t.Errorf("keepMax: got %v, want %v", got, want)
	}
}
