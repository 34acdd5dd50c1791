package pipeline

import (
	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/planner"
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
	*admit.Compiled
	opts Options

	// inline marks rules whose firings bypass the buffered canonical-order
	// admission path: Skolem assignments in the body mint nulls while
	// matching, so their enumeration order is part of the result and must
	// stay the static schedule's; negated atoms are checked against live
	// state, so admissions interleave with matching exactly as the serial
	// semantics prescribe.
	inline []bool

	// producers maps a predicate (or constraintHub) to the indexes of the
	// rules feeding it, in rule order.
	producers map[string][]int
}

// Compile runs rewriting, wardedness analysis and rule compilation on
// prog and returns the shareable artifact. This is the expensive step:
// sessions created from the result skip all of it.
func Compile(prog *ast.Program, opts Options) (*Compiled, error) {
	ac, err := admit.Compile(prog, admit.Config{
		Engine:              "pipeline",
		Rewrite:             opts.Rewrite,
		DisableSummary:      opts.DisableSummary,
		MaxDerivations:      opts.MaxDerivations,
		RequireWarded:       opts.RequireWarded,
		NewPolicy:           opts.NewPolicy,
		DisableDynamicIndex: opts.DisableDynamicIndex,
	})
	if err != nil {
		return nil, err
	}
	c := &Compiled{Compiled: ac, opts: opts, producers: make(map[string][]int)}
	for i, cr := range c.Rules {
		inl := len(cr.Neg) > 0
		for _, asg := range cr.Assigns {
			if asg.IsSkolem {
				inl = true
			}
		}
		c.inline = append(c.inline, inl)
		switch r := cr.Rule; {
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
		hubs:   make(map[string]*hub),
		bm:     storage.NewBufferManager(c.opts.BufferCapacity),
		timing: c.opts.PhaseTiming,
	}
	s.adm = c.NewAdmitter(s.stored)
	s.db = s.adm.DB
	if !c.opts.DisablePlanner {
		s.pl = planner.New(sessionCatalog{s: s})
	}
	s.mt = &eval.Matcher{DB: s.db, OnIndexProbe: func(pred string) { s.bm.Touch(pred) }}
	//vadalint:ordered keyed effects only: Rel keeps db.names sorted, hub/segment registration is per-pred
	for pred, arity := range c.Preds {
		rel := s.db.Rel(pred, arity)
		s.hubs[pred] = &hub{rel: rel}
		s.bm.Register(pred, rel)
	}
	for i, cr := range c.Rules {
		s.filters = append(s.filters, &ruleFilter{
			idx:     i,
			cr:      cr,
			binding: eval.NewBinding(cr),
			cursors: make([]int, len(cr.Pos)),
			sized:   make([]*planner.Plan, len(cr.Pos)),
		})
	}
	//vadalint:ordered each hub's producer list is built from its own key's ruleIdxs only
	for pred, ruleIdxs := range c.producers {
		h := s.hubs[pred]
		if h == nil { // the synthetic constraint sink
			h = &hub{rel: s.db.Rel(pred, 1)}
			s.hubs[pred] = h
		}
		for _, ri := range ruleIdxs {
			h.producers = append(h.producers, s.filters[ri])
		}
	}
	return s
}

// Program returns the rewritten program the artifact executes.
func (c *Compiled) Program() *ast.Program { return c.Prog }

// Analysis returns the warded analysis of the rewritten program.
func (c *Compiled) Analysis() *analysis.Result { return c.Res }
