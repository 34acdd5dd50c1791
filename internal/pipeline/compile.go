package pipeline

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lint"
	"repro/internal/planner"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// constraintHub is the synthetic hub that drives constraint and EGD
// filters (side-effect sinks without a head predicate of their own).
const constraintHub = "#constraints"

// Compiled is the immutable compile-time artifact of a program: the
// rewritten rules, their warded analysis, the per-rule executable plans
// and the filter/pipe topology. Compilation happens exactly once; a
// Compiled is safe for concurrent use by any number of goroutines, each
// deriving cheap per-run state with NewSession.
type Compiled struct {
	opts Options
	prog *ast.Program // rewritten program
	res  *analysis.Result
	rw   *rewrite.Result

	rules   []*eval.CompiledRule
	postAgg [][]eval.CCond // conditions depending on the aggregate result
	// inline marks rules whose firings bypass the buffered canonical-order
	// admission path: Skolem assignments in the body mint nulls while
	// matching, so their enumeration order is part of the result and must
	// stay the static schedule's; negated atoms are checked against live
	// state, so admissions interleave with matching exactly as the serial
	// semantics prescribe.
	inline []bool

	// preds maps every predicate of the rewritten program to its arity;
	// producers maps a predicate (or constraintHub) to the indexes of the
	// rules feeding it, in rule order.
	preds     map[string]int
	producers map[string][]int

	budget int
}

// Compile runs rewriting, wardedness analysis and rule compilation on
// prog and returns the shareable artifact. This is the expensive step:
// sessions created from the result skip all of it.
func Compile(prog *ast.Program, opts Options) (*Compiled, error) {
	rwOpts := rewrite.DefaultOptions()
	if opts.Rewrite != nil {
		rwOpts = *opts.Rewrite
	}
	rw, err := rewrite.Apply(prog, rwOpts)
	if err != nil {
		return nil, err
	}
	res := analysis.Analyze(rw.Program)
	if opts.RequireWarded {
		if err := lint.RequireWarded(res); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	c := &Compiled{
		opts:      opts,
		prog:      rw.Program,
		res:       res,
		rw:        rw,
		producers: make(map[string][]int),
		budget:    opts.MaxDerivations,
	}
	if c.budget <= 0 {
		c.budget = 10_000_000
	}
	preds, err := rw.Program.Predicates()
	if err != nil {
		return nil, err
	}
	c.preds = preds
	for i, r := range rw.Program.Rules {
		cr, err := eval.Compile(r, res.Rules[i])
		if err != nil {
			return nil, err
		}
		if len(cr.Pos) == 0 {
			return nil, fmt.Errorf("pipeline: rule %d has no positive body atom: %s", r.ID, r.String())
		}
		var pa []eval.CCond
		if cr.Agg != nil {
			for _, cond := range cr.Conds {
				for _, d := range cond.Deps {
					if d == cr.Agg.ResultSlot {
						pa = append(pa, cond)
						break
					}
				}
			}
		}
		inl := len(cr.Neg) > 0
		for _, asg := range cr.Assigns {
			if asg.IsSkolem {
				inl = true
			}
		}
		c.rules = append(c.rules, cr)
		c.postAgg = append(c.postAgg, pa)
		c.inline = append(c.inline, inl)
		switch {
		case r.IsConstraint, r.EGD != nil:
			c.producers[constraintHub] = append(c.producers[constraintHub], i)
		default:
			c.producers[r.Heads[0].Pred] = append(c.producers[r.Heads[0].Pred], i)
		}
	}
	return c, nil
}

// NewSession derives fresh run-time state (database, interner, strategy,
// buffers, bindings, cursors) over the shared compiled artifact. Sessions
// are cheap; each is for use by a single goroutine.
func (c *Compiled) NewSession() *Session {
	s := &Session{
		c:      c,
		db:     storage.NewDatabase(),
		subst:  eval.NewNullSubst(),
		hubs:   make(map[string]*hub),
		budget: c.budget,
		bm:     storage.NewBufferManager(c.opts.BufferCapacity),
		timing: c.opts.PhaseTiming,
	}
	if c.opts.NewPolicy != nil {
		s.strat = c.opts.NewPolicy(c.res)
	} else {
		full := core.NewStrategy(c.res)
		full.DisableSummary = c.opts.DisableSummary
		s.strat = full
	}
	if c.opts.DisableDynamicIndex {
		s.db.DisableIndexes()
	}
	if !c.opts.DisablePlanner {
		s.pl = planner.New(sessionCatalog{s: s})
	}
	s.mt = &eval.Matcher{DB: s.db, OnIndexProbe: func(pred string) { s.bm.Touch(pred) }}
	//vadalint:ordered keyed effects only: Rel keeps db.names sorted, hub/segment registration is per-pred
	for pred, arity := range c.preds {
		rel := s.db.Rel(pred, arity)
		s.hubs[pred] = &hub{pred: pred, rel: rel}
		s.bm.Register(pred, rel)
	}
	for i, cr := range c.rules {
		f := &ruleFilter{
			idx:     i,
			cr:      cr,
			binding: eval.NewBinding(cr),
			cursors: make([]int, len(cr.Pos)),
			postAgg: c.postAgg[i],
			sized:   make([]*planner.Plan, len(cr.Pos)),
		}
		if cr.Rule.Aggregate != nil {
			f.agg = eval.NewAggState(cr.Rule.Aggregate.Func, s.db.Interner())
		}
		s.filters = append(s.filters, f)
	}
	//vadalint:ordered each hub's producer list is built from its own key's ruleIdxs only
	for pred, ruleIdxs := range c.producers {
		h := s.hubs[pred]
		if h == nil { // the synthetic constraint sink
			h = &hub{pred: pred, rel: s.db.Rel(pred, 1)}
			s.hubs[pred] = h
		}
		for _, ri := range ruleIdxs {
			h.producers = append(h.producers, s.filters[ri])
		}
	}
	return s
}

// Program returns the rewritten program the artifact executes.
func (c *Compiled) Program() *ast.Program { return c.prog }

// Analysis returns the warded analysis of the rewritten program.
func (c *Compiled) Analysis() *analysis.Result { return c.res }
