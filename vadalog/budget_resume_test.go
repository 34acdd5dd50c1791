package vadalog

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// example7Src and example7Facts are the paper's running example 7
// (company ownership with existential persons of significant control and
// the strongLink harmful join), as in the engines' cross-validation suite.
const example7Src = `
	company(X) -> owns(P, S, X).
	owns(P,S,X) -> stock(X, S).
	owns(P,S,X) -> psc(X, P).
	psc(X,P), controls(X,Y) -> owns(P, S2, Y).
	psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
	strongLink(X,Y) -> owns(P2, S3, X).
	strongLink(X,Y) -> owns(P3, S4, Y).
	stock(X,S) -> company(X).
`

func example7Facts() []Fact {
	return []Fact{
		MakeFact("company", Str("hsbc")),
		MakeFact("company", Str("hsb")),
		MakeFact("company", Str("iba")),
		MakeFact("controls", Str("hsbc"), Str("hsb")),
		MakeFact("controls", Str("hsb"), Str("iba")),
	}
}

// groundAnswers renders the sorted ground facts of every IDB predicate
// of a finished session.
func groundAnswers(t *testing.T, s *Session) []string {
	t.Helper()
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, facts := range res.All() {
		for _, f := range facts {
			if f.IsGround() {
				out = append(out, f.String())
			}
		}
	}
	slices.Sort(out)
	return out
}

// aggResumeSrc and aggResumeFacts exercise the aggregate path: every msum
// improvement is recorded in the rule's aggregate state, so a budget that
// refuses the improved fact after the update loses it on resume.
const aggResumeSrc = `
	own(X,Y,W), W > 0.5 -> control(X,Y).
	control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
	control(X,Y), own(Y,Z,W), V = msum(W, <Y>) -> total(X,Z,V).
`

func aggResumeFacts() []Fact {
	return append(controlFacts(),
		MakeFact("own", Str("c"), Str("e"), Flt(0.9)),
		MakeFact("own", Str("b"), Str("e"), Flt(0.05)),
	)
}

// TestBudgetResumeKeepsAnswers interrupts a run at every derivation budget
// short of the unbounded run's count, resumes it with the default budget,
// and requires the ground answers of the unbounded run. A candidate the
// budget refuses must leave no trace in the admission state: otherwise the
// resumed run prunes the re-fired derivation as isomorphic to a fact that
// was never stored (Algorithm 1's ground structure), or sees no
// improvement of an aggregate whose improved fact was never stored.
//
// The pipeline under PolicyFull is left out of example 7: the summary's
// horizontal pruning is order-sensitive under volcano scheduling (the
// pipeline loses strongLink pairs with iba on some input orders even
// without a budget), and a resume changes the pull order.
func TestBudgetResumeKeepsAnswers(t *testing.T) {
	cells := []struct {
		name  string
		src   string
		facts []Fact
		opts  Options
	}{
		{"example7/chase/full/w=1", example7Src, example7Facts(), Options{Engine: EngineChase, Parallelism: 1}},
		{"example7/chase/full/w=4", example7Src, example7Facts(), Options{Engine: EngineChase, Parallelism: 4}},
		{"example7/chase/nosummary/w=1", example7Src, example7Facts(), Options{Engine: EngineChase, Policy: PolicyNoSummary, Parallelism: 1}},
		{"example7/chase/nosummary/w=4", example7Src, example7Facts(), Options{Engine: EngineChase, Policy: PolicyNoSummary, Parallelism: 4}},
		{"example7/pipeline/nosummary", example7Src, example7Facts(), Options{Engine: EnginePipeline, Policy: PolicyNoSummary}},
		{"msum/chase/w=1", aggResumeSrc, aggResumeFacts(), Options{Engine: EngineChase, Parallelism: 1}},
		{"msum/chase/w=4", aggResumeSrc, aggResumeFacts(), Options{Engine: EngineChase, Parallelism: 4}},
		{"msum/pipeline", aggResumeSrc, aggResumeFacts(), Options{Engine: EnginePipeline}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			run := func(budget int) (*Session, error) {
				opts := c.opts
				opts.MaxDerivations = budget
				s, err := NewSession(MustParse(c.src), &opts)
				if err != nil {
					t.Fatal(err)
				}
				s.Load(c.facts...)
				return s, s.Run()
			}
			full, err := run(0)
			if err != nil {
				t.Fatal(err)
			}
			want := groundAnswers(t, full)
			n := full.Derivations()
			var wrong []string
			for budget := 1; budget < n; budget++ {
				s, err := run(budget)
				var pr *PartialResult
				if errors.As(err, &pr) {
					s.SetMaxDerivations(0)
					err = pr.Resume(context.Background())
				}
				if err != nil {
					t.Fatalf("budget %d: resume: %v", budget, err)
				}
				if got := groundAnswers(t, s); !slices.Equal(got, want) {
					wrong = append(wrong, fmt.Sprintf("%d (%d of %d answers)", budget, len(got), len(want)))
				}
			}
			if len(wrong) > 0 {
				t.Errorf("%d of %d budgets lose answers after resume: %v", len(wrong), n-1, wrong)
			}
		})
	}
}
