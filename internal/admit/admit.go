// Package admit is the admission core both reasoning engines share: the
// termination-strategy wrapper of paper Sec. 4, run under the chase's
// delta batches (Algorithm 2) and under the pipeline's volcano pulls
// alike. It owns everything from a candidate binding to a stored fact:
// aggregate update and post-aggregate conditions, EGD unification and
// constraint firing, existential instantiation and head building, the
// duplicate check, the termination check (Algorithm 1), budget charging,
// insertion, aggregate supersession, the tag twins of dynamic
// harmful-join elimination, and EDB loading under crash isolation.
//
// Compile is the compile-time half, built once per program; an Admitter
// is the per-run half. The engines keep only their scheduling: what gets
// matched when, and in which order candidates reach Emit. The one
// engine-specific effect of storing a fact goes through the Admitter's
// StoreHook.
package admit

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lint"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/term"
)

// ErrInconsistent is returned (wrapped) when a negative constraint fires
// or an EGD equates two distinct constants.
var ErrInconsistent = errors.New("admit: knowledge base is inconsistent")

// ErrBudget is returned when the derivation budget is exhausted; with the
// termination strategy enabled this indicates a genuinely enormous answer,
// with it disabled it is the expected outcome on non-terminating programs.
var ErrBudget = errors.New("admit: derivation budget exceeded")

// defaultBudget is the derivation cap when Config.MaxDerivations is 0.
const defaultBudget = 10_000_000

// Config is the part of an engine's options the admission core reads.
type Config struct {
	// Engine names the engine ("chase", "pipeline") in compile errors and
	// crash reports.
	Engine              string
	Rewrite             *rewrite.Options
	DisableSummary      bool
	MaxDerivations      int
	RequireWarded       bool
	NewPolicy           func(*analysis.Result) core.Policy
	DisableDynamicIndex bool
}

// Compiled is the immutable compile-time half of admission: the rewritten
// program, its warded analysis and the compiled rules. It is safe for
// concurrent use; both engines' compiled artifacts embed it.
type Compiled struct {
	Prog  *ast.Program // rewritten program
	Res   *analysis.Result
	RW    *rewrite.Result
	Rules []*eval.CompiledRule
	// Preds maps every predicate of the rewritten program to its arity.
	Preds map[string]int

	cfg     Config
	budget  int
	postAgg [][]eval.CCond // per rule: conditions depending on the aggregate result
}

// Compile runs rewriting, wardedness analysis, the arity check and rule
// compilation on prog.
func Compile(prog *ast.Program, cfg Config) (*Compiled, error) {
	rwOpts := rewrite.DefaultOptions()
	if cfg.Rewrite != nil {
		rwOpts = *cfg.Rewrite
	}
	rw, err := rewrite.Apply(prog, rwOpts)
	if err != nil {
		return nil, err
	}
	res := analysis.Analyze(rw.Program)
	if cfg.RequireWarded {
		if err := lint.RequireWarded(res); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Engine, err)
		}
	}
	// Parse does not reject arity drift (the lint layer reports it as
	// A001); the engines reject it here.
	preds, err := rw.Program.Predicates()
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Prog:   rw.Program,
		Res:    res,
		RW:     rw,
		Preds:  preds,
		cfg:    cfg,
		budget: cfg.MaxDerivations,
	}
	if c.budget <= 0 {
		c.budget = defaultBudget
	}
	for i, r := range rw.Program.Rules {
		cr, err := eval.Compile(r, res.Rules[i])
		if err != nil {
			return nil, err
		}
		if len(cr.Pos) == 0 {
			return nil, fmt.Errorf("%s: rule %d has no positive body atom: %s", cfg.Engine, r.ID, r.String())
		}
		var pa []eval.CCond
		if cr.Agg != nil {
			for _, cond := range cr.Conds {
				if slices.Contains(cond.Deps, cr.Agg.ResultSlot) {
					pa = append(pa, cond)
				}
			}
		}
		c.Rules = append(c.Rules, cr)
		c.postAgg = append(c.postAgg, pa)
	}
	return c, nil
}

// StoreHook is an engine's effect of storing a fact: the chase queues it
// as a delta, the pipeline touches or registers its buffer segment. byRule
// is true when a rule firing stored m (a new fact, or an aggregate
// improvement superseding its intermediate in place) and false for EDB
// loads and tag-twin mirrors.
type StoreHook func(m *core.FactMeta, byRule bool)

// Admitter is the per-run half of admission: database, termination
// policy, null substitution, aggregate states, derivation meter and the
// buffers reused across emissions. It is for use by a single goroutine.
type Admitter struct {
	c     *Compiled
	DB    *storage.Database
	Strat core.Policy
	Subst *eval.NullSubst
	Meter *core.Meter

	stored StoreHook
	mt     eval.Matcher // existential instantiation (reads DB.Nulls)
	aggs   []*eval.AggState

	// groupBuf/contribBuf/headsBuf/parentsBuf are reused across emissions
	// so Emit allocates no per-match container slices (AggState keys copy
	// what they keep; stored facts retain only the per-head Args slices,
	// which stay freshly allocated).
	groupBuf   []term.Value
	contribBuf []term.Value
	headsBuf   []ast.Fact
	parentsBuf []*core.FactMeta
}

// NewAdmitter derives fresh per-run state (database, policy, meter,
// aggregate states) over c; stored receives every storage effect.
func (c *Compiled) NewAdmitter(stored StoreHook) *Admitter {
	a := &Admitter{
		c:      c,
		DB:     storage.NewDatabase(),
		Subst:  eval.NewNullSubst(),
		Meter:  core.NewMeter(c.budget),
		stored: stored,
	}
	if c.cfg.NewPolicy != nil {
		a.Strat = c.cfg.NewPolicy(c.Res)
	} else {
		full := core.NewStrategy(c.Res)
		full.DisableSummary = c.cfg.DisableSummary
		a.Strat = full
	}
	if c.cfg.DisableDynamicIndex {
		a.DB.DisableIndexes()
	}
	a.mt.DB = a.DB
	for _, cr := range c.Rules {
		var st *eval.AggState
		if cr.Rule.Aggregate != nil {
			st = eval.NewAggState(cr.Rule.Aggregate.Func, a.DB.Interner())
		}
		a.aggs = append(a.aggs, st)
	}
	return a
}

// Load admits EDB facts, skipping duplicates. Loads are charged
// unconditionally: the budget bounds derivations, not input.
func (a *Admitter) Load(facts ...ast.Fact) {
	for _, f := range facts {
		if !a.DB.InsertEDB(f, a.Strat) {
			continue
		}
		rel := a.DB.Rel(f.Pred, len(f.Args))
		a.stored(rel.At(rel.Len()-1), false)
		a.Meter.Charge()
		a.insertTagTwin(f)
	}
}

// LoadProgramFacts admits the program's inline facts. It is idempotent.
func (a *Admitter) LoadProgramFacts() { a.Load(a.c.Prog.Facts...) }

// LoadGuarded admits the program's inline facts, then edb, under Guard —
// the initial loads of an engine's Run.
func (a *Admitter) LoadGuarded(edb []ast.Fact) error {
	return a.Guard(func() error {
		a.LoadProgramFacts()
		a.Load(edb...)
		return nil
	})
}

// Guard runs load with its crashes converted into a typed error: a panic
// mid-load (storage fault) leaves the admitted prefix intact and the store
// consistent, and since loading skips duplicates, re-feeding the same
// facts resumes exactly where the crash struck.
func (a *Admitter) Guard(load func() error) (err error) {
	defer func() {
		if r := recover(); r != nil { //vadalint:panicguard load-path crash isolation: convert storage faults into typed resumable errors
			err = &core.PanicError{Engine: a.c.cfg.Engine + " load", Value: r, Stack: debug.Stack()}
		}
	}()
	return load()
}

// Output returns pred's facts with the program's @post directives applied
// and the EGD null substitution resolved.
func (a *Admitter) Output(pred string) []ast.Fact {
	return eval.ApplyPost(a.DB.FactsOf(pred), a.c.Prog.Posts, pred, a.Subst)
}

// Emit admits the consequences of one complete match b of rule ri: it
// fires constraints, unifies EGDs, updates the rule's aggregate, then
// builds and admits the head facts. Every fact it stores or supersedes in
// place is charged to the meter, so the meter's count tells callers how
// much a firing produced.
func (a *Admitter) Emit(ri int, b *eval.Binding) error {
	cr := a.c.Rules[ri]
	rule := cr.Rule
	switch {
	case rule.IsConstraint:
		return fmt.Errorf("%w: constraint fired: %s", ErrInconsistent, rule.String())
	case rule.EGD != nil:
		l := b.Val(cr.VarSlot[rule.EGD.Left])
		r := b.Val(cr.VarSlot[rule.EGD.Right])
		if err := a.Subst.Unify(l, r); err != nil {
			return fmt.Errorf("%w: %v (egd %s)", ErrInconsistent, err, rule.String())
		}
		return nil
	}
	if cr.Agg != nil {
		// The update is recorded whether or not a head fact gets stored, so
		// an exhausted budget must refuse it first: a resumed run re-firing
		// this match would otherwise see no improvement and emit nothing.
		if err := a.budgetErr(); err != nil {
			return err
		}
		group := a.groupBuf[:0]
		for _, s := range cr.Agg.GroupSlots {
			group = append(group, b.Val(s))
		}
		a.groupBuf = group
		contrib := a.contribBuf[:0]
		for _, s := range cr.Agg.ContribSlots {
			contrib = append(contrib, b.Val(s))
		}
		a.contribBuf = contrib
		var x term.Value
		if cr.Agg.ArgSlot >= 0 {
			x = b.Val(cr.Agg.ArgSlot)
		} else {
			var err error
			x, err = cr.Agg.Arg.Eval(b.Env(cr, cr.Agg.ArgDeps))
			if err != nil {
				return err
			}
		}
		agg, improved, err := a.aggs[ri].Update(group, contrib, x)
		if err != nil {
			return err
		}
		if !improved && cr.Agg.SkipSafe {
			// The group's aggregate did not change and the post-aggregate
			// conditions depend only on (result, group): this match
			// evaluates exactly like the one that already emitted, so
			// there is nothing new to emit. Unsafe rules (conditions over
			// other body variables, existential heads) fall through to the
			// full path; supersession makes re-emission idempotent.
			return nil
		}
		b.Set(cr.Agg.ResultSlot, agg)
		for i := range a.c.postAgg[ri] {
			c := &a.c.postAgg[ri][i]
			if c.Fast {
				if !c.EvalFast(b) {
					return nil
				}
				continue
			}
			// The aggregate result reaches the environment through its
			// slot (set above), so the dependency-restricted env suffices.
			ok, err := ast.EvalCondition(c.Cond, b.Env(cr, c.Deps))
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	a.mt.InstantiateExistentials(cr, b)
	heads, err := eval.HeadFactsAppend(cr, b, a.Subst, a.headsBuf[:0])
	a.headsBuf = heads
	if err != nil {
		return err
	}
	parents := eval.WardFirstParentsAppend(cr, b, a.parentsBuf[:0])
	a.parentsBuf = parents
	for hi, hf := range heads {
		// Existential aggregate heads mint per-binding nulls: each binding
		// is its own fact, not an improvement of the previous one, so they
		// take the plain admission path (no supersession).
		if cr.Agg != nil && len(cr.Exists) == 0 {
			err = a.admitAggregate(ri, hi, hf, rule.ID, parents)
		} else {
			_, err = a.admit(hf, rule.ID, parents)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// budgetErr is ErrBudget when no derivation is left, nil otherwise.
func (a *Admitter) budgetErr() error {
	if a.Meter.Exhausted() {
		return fmt.Errorf("%w (%d facts)", ErrBudget, a.Meter.Used())
	}
	return nil
}

// admitAggregate admits an aggregate-head fact with supersession: when the
// rule has previously admitted a fact for the current group (and this head
// index), the improved fact replaces it in place — same FactMeta, same
// forest roots and provenance — instead of accumulating next to the
// superseded intermediate. Replacements count against the derivation
// budget (they are chase steps) and reach the store hook so dependent
// rules observe the improved value.
func (a *Admitter) admitAggregate(ri, hi int, f ast.Fact, ruleID int, parents []*core.FactMeta) error {
	st := a.aggs[ri]
	prev, ok := st.LastEmitted(hi)
	if !ok {
		m, err := a.admit(f, ruleID, parents)
		if m != nil {
			rel := a.DB.Rel(f.Pred, len(f.Args))
			st.RecordEmitted(hi, m, rel.Len()-1)
		}
		return err
	}
	if err := a.budgetErr(); err != nil {
		return err
	}
	old := prev.Meta.Fact
	rel := a.DB.Rel(f.Pred, len(f.Args))
	switch rel.Replace(prev.Row, f) {
	case storage.ReplaceUnchanged:
		return nil // e.g. the aggregate result does not occur in the head
	case storage.ReplaceRetracted:
		// The improved value already exists as an independently stored
		// fact; the superseded intermediate was retracted and the group is
		// represented by that fact. The next improvement starts fresh.
		st.RecordEmitted(hi, nil, 0)
		a.noteSuperseded(old)
		return nil
	default: // ReplaceDone
		a.Meter.Charge()
		a.stored(prev.Meta, true)
		a.noteSuperseded(old)
		a.replaceTagTwin(old, f)
		return nil
	}
}

// noteSuperseded tells fact-memorizing termination policies that old is no
// longer stored.
func (a *Admitter) noteSuperseded(old ast.Fact) {
	if obs, ok := a.Strat.(core.SupersessionObserver); ok {
		obs.NoteSuperseded(old)
	}
}

// admit runs the set-semantics duplicate check, the budget check, the
// termination strategy, and on success stores the fact. It returns the
// stored metadata, nil when the fact was rejected.
//
// The budget is checked before the strategy sees the fact: Algorithm 1
// records accepted facts in its ground structure, so a fact it accepted
// but the budget then refused would be pruned as isomorphic to itself
// when a resumed run re-derives it.
func (a *Admitter) admit(f ast.Fact, ruleID int, parents []*core.FactMeta) (*core.FactMeta, error) {
	rel := a.DB.Rel(f.Pred, len(f.Args))
	dup := rel.Contains(f)
	a.Meter.NoteCandidate(dup)
	if dup {
		return nil, nil
	}
	if err := a.budgetErr(); err != nil {
		return nil, err
	}
	m := a.Strat.Derive(f, ruleID, parents)
	if !a.Strat.CheckTermination(m) {
		return nil, nil
	}
	rel.Insert(m)
	a.Meter.Charge()
	a.Meter.NoteAdmit()
	a.stored(m, true)
	a.insertTagTwin(f)
	return m, nil
}

// insertTagTwin mirrors a stored fact of a tagged predicate into its tag
// twin, with labelled nulls replaced by their canonical ground keys
// (dynamic harmful-join elimination; see rewrite.EliminateHarmfulJoinsDynamic).
func (a *Admitter) insertTagTwin(f ast.Fact) {
	twin, ok := a.c.RW.TagPreds[f.Pred]
	if !ok {
		return
	}
	tf := a.tagTwinFact(twin, f)
	rel := a.DB.Rel(twin, len(tf.Args))
	if rel.Contains(tf) {
		return
	}
	m := a.Strat.NewEDBFact(tf)
	rel.Insert(m)
	a.stored(m, false)
}

// tagTwinFact renders the tag-twin image of f: labelled nulls replaced by
// their canonical ground keys.
func (a *Admitter) tagTwinFact(twin string, f ast.Fact) ast.Fact {
	args := make([]term.Value, len(f.Args))
	for i, v := range f.Args {
		if v.IsNull() {
			args[i] = term.String("\x00" + a.DB.Nulls.KeyOf(v))
		} else {
			args[i] = v
		}
	}
	return ast.Fact{Pred: twin, Args: args}
}

// replaceTagTwin mirrors an aggregate supersession into the tag twin of a
// tagged predicate: the twin of the superseded fact is replaced by the
// twin of the improved one.
func (a *Admitter) replaceTagTwin(old, f ast.Fact) {
	twin, ok := a.c.RW.TagPreds[f.Pred]
	if !ok {
		return
	}
	oldTwin := a.tagTwinFact(twin, old)
	newTwin := a.tagTwinFact(twin, f)
	rel := a.DB.Rel(twin, len(newTwin.Args))
	idx, found := rel.FindExact(oldTwin)
	if !found {
		a.insertTagTwin(f)
		return
	}
	if rel.Replace(idx, newTwin) == storage.ReplaceDone {
		a.stored(rel.At(idx), false)
	}
}
