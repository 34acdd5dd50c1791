package vadalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/term"
)

const controlSrc = `
	own(X,Y,W), W > 0.5 -> control(X,Y).
	control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
	@output("control").
`

func controlFacts() []Fact {
	// a controls b and d directly; b and d jointly own 0.55 of c, so a
	// controls c through them (Example 2 semantics: msum ranges over the
	// companies a already controls).
	return []Fact{
		MakeFact("own", Str("a"), Str("b"), Flt(0.6)),
		MakeFact("own", Str("a"), Str("d"), Flt(0.7)),
		MakeFact("own", Str("b"), Str("c"), Flt(0.3)),
		MakeFact("own", Str("d"), Str("c"), Flt(0.25)),
	}
}

func TestReasonOneShot(t *testing.T) {
	prog := MustParse(controlSrc)
	out, err := Reason(prog, controlFacts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := out["control"]
	found := map[string]bool{}
	for _, f := range ctrl {
		found[f.Args[0].Str()+">"+f.Args[1].Str()] = true
	}
	if !found["a>b"] || !found["a>c"] {
		t.Errorf("control pairs: %v", ctrl)
	}
}

func TestEnginesAgree(t *testing.T) {
	var outs [2]string
	var derivs [2]int
	for i, engine := range []Engine{EnginePipeline, EngineChase} {
		prog := MustParse(controlSrc)
		sess, err := NewSession(prog, &Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		sess.Load(controlFacts()...)
		if err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		outs[i] = fmt.Sprint(sess.Output("control"))
		derivs[i] = sess.Derivations()
	}
	if want := "[control(a,b) control(a,c) control(a,d)]"; outs[0] != want {
		t.Errorf("pipeline control = %s, want %s", outs[0], want)
	}
	if outs[0] != outs[1] || derivs[0] != derivs[1] {
		t.Errorf("engines disagree: pipeline %s (%d derivations), chase %s (%d derivations)",
			outs[0], derivs[0], outs[1], derivs[1])
	}
}

func TestAllPoliciesAgreeOnGroundAnswers(t *testing.T) {
	src := `
		company(X) -> psc(X, P).
		keyPerson(X, P) -> psc(X, P).
		control(Y,X), psc(Y,P) -> psc(X,P).
		psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
		@output("strongLink").
	`
	facts := []Fact{
		MakeFact("company", Str("a")),
		MakeFact("company", Str("b")),
		MakeFact("control", Str("a"), Str("b")),
		MakeFact("keyPerson", Str("a"), Str("bob")),
		MakeFact("keyPerson", Str("b"), Str("bob")),
	}
	var want []string
	for _, pol := range []Policy{PolicyFull, PolicyNoSummary, PolicyTrivialIso, PolicyRestricted, PolicySkolem} {
		prog := MustParse(src)
		sess, err := NewSession(prog, &Options{Policy: pol, MaxDerivations: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		sess.Load(facts...)
		if err := sess.Run(); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		var got []string
		for _, f := range sess.Output("strongLink") {
			if f.IsGround() {
				got = append(got, f.String())
			}
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Errorf("policy %v: %d ground answers, want %d", pol, len(got), len(want))
		}
	}
}

func TestStreamAPI(t *testing.T) {
	prog := MustParse(`
		edge(X,Y) -> path(X,Y).
		path(X,Y), edge(Y,Z) -> path(X,Z).
		@output("path").
	`)
	sess, err := NewSession(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Load(
		MakeFact("edge", Str("a"), Str("b")),
		MakeFact("edge", Str("b"), Str("c")),
	)
	next := sess.Stream("path")
	count := 0
	for {
		_, ok, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 3 {
		t.Errorf("streamed %d paths, want 3", count)
	}
}

func TestCheckReport(t *testing.T) {
	rep := Check(MustParse(controlSrc))
	if !rep.Warded || !rep.Stratified || !rep.Recursive {
		t.Errorf("report: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
	// Non-warded program.
	rep = Check(MustParse(`
		a(X) -> p(X, Z).
		a(X) -> w(X, Z, V).
		w(X, Z, V), p(Y, Z) -> r(V, X, Y).
	`))
	if rep.Warded {
		t.Error("non-warded program reported as warded")
	}
}

func TestInconsistencyError(t *testing.T) {
	prog := MustParse(`
		p(X, X) -> #fail.
		p(X, Y) -> q(X, Y).
		@output("q").
	`)
	sess, err := NewSession(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Load(MakeFact("p", Str("a"), Str("a")))
	if err := sess.Run(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

func TestBudgetError(t *testing.T) {
	prog := MustParse(`
		a(X), a(Y) -> pair(X, Y).
		@output("pair").
	`)
	sess, err := NewSession(prog, &Options{MaxDerivations: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		sess.Load(MakeFact("a", Int(int64(i))))
	}
	if err := sess.Run(); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestCSVEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "own.csv")
	out := filepath.Join(dir, "control.csv")
	if err := os.WriteFile(in, []byte("a,b,0.9\nb,c,0.8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		own(X,Y,W), W > 0.5 -> control(X,Y).
		control(X,Y), own(Y,Z,W), V = msum(W, <Y>), V > 0.5 -> control(X,Z).
		@input("own").
		@output("control").
		@bind("own","csv","` + in + `").
		@bind("control","csv","` + out + `").
	`)
	sess, err := NewSession(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty control.csv")
	}
	// Round trip through ReadCSV.
	facts, err := ReadCSV("control", out)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 3 { // a>b, b>c, a>c
		t.Errorf("control rows: %v", facts)
	}
}

func TestStrategyStatsExposed(t *testing.T) {
	prog := MustParse(`
		p(X) -> q(Z, X).
		q(Z, X) -> p(Z).
		@output("p").
	`)
	sess, err := NewSession(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Load(MakeFact("p", Str("a")))
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	st, ok := sess.StrategyStats()
	if !ok {
		t.Fatal("full strategy must expose stats")
	}
	if st.Checked == 0 {
		t.Error("no checks recorded")
	}
	// Baseline policies do not expose strategy stats.
	sess2, _ := NewSession(MustParse(controlSrc), &Options{Policy: PolicySkolem})
	if _, ok := sess2.StrategyStats(); ok {
		t.Error("skolem policy must not expose strategy stats")
	}
}

func TestDisableRewriting(t *testing.T) {
	prog := MustParse(`
		company(X) -> psc(X, P).
		psc(X,P), psc(Y,P), X != Y -> strongLink(X,Y).
		@output("strongLink").
	`)
	sess, err := NewSession(prog, &Options{DisableRewriting: true, MaxDerivations: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	sess.Load(MakeFact("company", Str("a")), MakeFact("company", Str("b")))
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// Without rewriting the harmful join runs directly over Skolem nulls:
	// distinct companies get distinct nulls, so no strong links.
	if n := len(sess.Output("strongLink")); n != 0 {
		t.Errorf("unexpected strong links: %d", n)
	}
}

// TestOutputOrderTiesIndependentOfInput: values whose renderings tie —
// String("d5") and Date(5), Int(1) and Float(1) — must still come out
// in one order, the same on both engines and for any input order.
func TestOutputOrderTiesIndependentOfInput(t *testing.T) {
	var facts []Fact
	for i := int64(0); i < 20; i++ {
		facts = append(facts,
			MakeFact("a", Str(fmt.Sprintf("d%d", i)), Int(i)),
			MakeFact("a", term.Date(i), Int(i)),
			MakeFact("a", Int(i), Flt(float64(i))),
			MakeFact("a", Flt(float64(i)), Int(i)))
	}
	reversed := slices.Clone(facts)
	slices.Reverse(reversed)
	render := func(out []Fact) string {
		var sb strings.Builder
		for _, f := range out {
			for _, v := range f.Args {
				fmt.Fprintf(&sb, "%s/%s ", v, v.Kind())
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	var want string
	for _, engine := range []Engine{EnginePipeline, EngineChase} {
		for _, in := range [][]Fact{facts, reversed} {
			sess, err := NewSession(MustParse(`a(X,Y) -> q(X,Y).`), &Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			sess.Load(in...)
			if err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			got := render(sess.Output("q"))
			if want == "" {
				want = got
				if !strings.Contains(want, "d5/string 5/int \nd5/date 5/int \n") ||
					!strings.Contains(want, "5/int 5/float \n5/float 5/int \n") {
					t.Fatalf("ties not broken by kind:\n%s", want)
				}
				continue
			}
			if got != want {
				t.Errorf("engine %v: output order depends on input order:\n%s\nwant\n%s", engine, got, want)
			}
		}
	}
}
