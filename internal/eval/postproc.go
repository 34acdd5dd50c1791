package eval

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/term"
)

// ApplyPost implements the post-processing directives of paper Sec. 5
// (Annotations → Post-processing Directives) for one output predicate:
//
//	certain        — drop facts with labelled nulls (certain answers);
//	orderBy n      — sort by column n (1-based);
//	limit n        — keep the first n facts;
//	keepMax n      — per group (all columns except n), keep only the row
//	                 with the maximal value in column n: the SQL-style
//	                 final aggregate over the monotonic intermediates;
//	keepMin n      — dually, the minimal row.
//
// Without orderBy the facts come out in rendered-key order (Fact.Key),
// ties between equal renderings — String("d5") and Date(5), Int(1) and
// Float(1) — broken by the argument kinds; see valueTable.
//
// The EGD null substitution is resolved first when non-nil. The input
// slice is modified in place and returned.
func ApplyPost(facts []ast.Fact, posts []ast.PostDirective, pred string, subst *NullSubst) []ast.Fact {
	substituted := subst != nil && !subst.Empty()
	if substituted {
		for i, f := range facts {
			args := make([]term.Value, len(f.Args))
			for j, v := range f.Args {
				args[j] = subst.Resolve(v)
			}
			facts[i] = ast.Fact{Pred: f.Pred, Args: args}
		}
	}
	certain := false
	orderBy, limit := -1, -1
	keepMax, keepMin := -1, -1
	for _, d := range posts {
		if d.Pred != pred {
			continue
		}
		switch d.Kind {
		case "certain":
			certain = true
		case "orderBy":
			orderBy = d.Arg - 1
		case "limit":
			limit = d.Arg
		case "keepMax":
			keepMax = d.Arg - 1
		case "keepMin":
			keepMin = d.Arg - 1
		}
	}
	// rows holds the surviving facts as indexes into facts, in order; the
	// facts themselves are moved once, at the end.
	t := newValueTable(facts)
	rows := make([]int32, len(facts))
	for i := range rows {
		rows[i] = int32(i)
	}
	if substituted {
		rows = t.dedup(rows)
	}
	if certain {
		rows = slices.DeleteFunc(rows, func(r int32) bool { return !facts[r].IsGround() })
	}
	if keepMax >= 0 {
		rows = t.keepExtremal(rows, keepMax, true)
	}
	if keepMin >= 0 {
		rows = t.keepExtremal(rows, keepMin, false)
	}
	if orderBy >= 0 {
		slices.SortStableFunc(rows, func(a, b int32) int {
			fa, fb := facts[a].Args, facts[b].Args
			if orderBy < len(fa) && orderBy < len(fb) {
				return term.Compare(fa[orderBy], fb[orderBy])
			}
			return 0
		})
	} else {
		t.sortByKey(rows)
	}
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	out := make([]ast.Fact, len(rows))
	for i, r := range rows {
		out[i] = facts[r]
	}
	return append(facts[:0], out...)
}

// valueTable numbers the distinct values of one ApplyPost call's facts
// so that grouping and ordering compare int32 slots instead of rendered
// keys. Slots follow strict Value identity, as interned storage does:
// Int(1) and Float(1) get distinct slots and every NaN shares one. The
// one departure is -0, which is == to +0 as a Value but renders
// differently; it gets its own slot so that every slot has one
// rendering.
type valueTable struct {
	facts        []ast.Fact
	slot         map[term.Value]int32
	nan, negZero int32        // slots of NaN and -0, or -1
	vals         []term.Value // slot → value
	args         []int32      // slot of every argument, facts end to end
	off          []int32      // facts[i]'s slots are args[off[i]:off[i+1]]
}

func newValueTable(facts []ast.Fact) *valueTable {
	t := &valueTable{
		facts:   facts,
		slot:    make(map[term.Value]int32),
		nan:     -1,
		negZero: -1,
		off:     make([]int32, len(facts)+1),
	}
	n := 0
	for _, f := range facts {
		n += len(f.Args)
	}
	t.args = make([]int32, 0, n)
	for i, f := range facts {
		for _, v := range f.Args {
			t.args = append(t.args, t.slotOf(v))
		}
		t.off[i+1] = int32(len(t.args))
	}
	return t
}

func (t *valueTable) slotOf(v term.Value) int32 {
	if v.Kind() == term.KindFloat {
		switch f := v.FloatVal(); {
		case math.IsNaN(f):
			return t.special(&t.nan, v)
		case f == 0 && math.Signbit(f):
			return t.special(&t.negZero, v)
		}
	}
	s, ok := t.slot[v]
	if !ok {
		s = int32(len(t.vals))
		t.slot[v] = s
		t.vals = append(t.vals, v)
	}
	return s
}

func (t *valueTable) special(s *int32, v term.Value) int32 {
	if *s < 0 {
		*s = int32(len(t.vals))
		t.vals = append(t.vals, v)
	}
	return *s
}

// row returns the slots of facts[r]'s arguments.
func (t *valueTable) row(r int32) []int32 { return t.args[t.off[r]:t.off[r+1]] }

// sortByKey sorts rows into the order of Fact.Key with ties broken by
// the argument kinds. Each distinct value is rendered once and ranked
// densely by its rendering (equal renderings share a rank); facts then
// compare by (Pred, rank tuple, kind tuple). The rank tuple orders like
// the key: Key joins the renderings with '\x00', which sorts below every
// byte a rendering can hold (strconv.Quote escapes NUL), so a rendering
// that is a prefix of another sorts first either way. The row index
// settles what is left, which only exact duplicates reach.
func (t *valueTable) sortByKey(rows []int32) {
	strs := make([]string, len(t.vals))
	byStr := make([]int32, len(t.vals))
	for s, v := range t.vals {
		strs[s] = v.String()
		byStr[s] = int32(s)
	}
	slices.SortFunc(byStr, func(a, b int32) int { return strings.Compare(strs[a], strs[b]) })
	rank := make([]int32, len(t.vals))
	r := int32(-1)
	for i, s := range byStr {
		if i == 0 || strs[s] != strs[byStr[i-1]] {
			r++
		}
		rank[s] = r
	}
	keys := make([]int32, len(t.args))
	for i, s := range t.args {
		keys[i] = rank[s]
	}
	kind := func(a, b int32) int { return cmp.Compare(t.vals[a].Kind(), t.vals[b].Kind()) }
	slices.SortFunc(rows, func(a, b int32) int {
		if c := strings.Compare(t.facts[a].Pred, t.facts[b].Pred); c != 0 {
			return c
		}
		if c := slices.Compare(keys[t.off[a]:t.off[a+1]], keys[t.off[b]:t.off[b+1]]); c != 0 {
			return c
		}
		if c := slices.CompareFunc(t.row(a), t.row(b), kind); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// groupKey appends to buf a key identifying facts[r] by predicate and
// the slots of every argument except column skip (-1 skips none).
func (t *valueTable) groupKey(buf []byte, r int32, skip int) []byte {
	buf = append(buf, t.facts[r].Pred...)
	buf = append(buf, 0)
	for i, s := range t.row(r) {
		if i != skip {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
		}
	}
	return buf
}

// dedup keeps the first of each set of rows holding the same fact.
func (t *valueTable) dedup(rows []int32) []int32 {
	seen := make(map[string]struct{}, len(rows))
	var buf []byte
	return slices.DeleteFunc(rows, func(r int32) bool {
		buf = t.groupKey(buf[:0], r, -1)
		if _, dup := seen[string(buf)]; dup {
			return true
		}
		seen[string(buf)] = struct{}{}
		return false
	})
}

// keepExtremal groups rows by every column except col and keeps the row
// with the maximal (or minimal) value at col; rows too short to have col
// are kept.
func (t *valueTable) keepExtremal(rows []int32, col int, max bool) []int32 {
	groups := make(map[string]int32, len(rows))
	group := make([]int32, len(rows)) // group of rows[i], -1 when too short
	var best []int32                  // group → its extremal row
	var buf []byte
	for i, r := range rows {
		args := t.facts[r].Args
		if col >= len(args) {
			group[i] = -1
			continue
		}
		buf = t.groupKey(buf[:0], r, col)
		g, ok := groups[string(buf)]
		if !ok {
			g = int32(len(best))
			groups[string(buf)] = g
			best = append(best, r)
		} else {
			c := term.Compare(args[col], t.facts[best[g]].Args[col])
			if (max && c > 0) || (!max && c < 0) {
				best[g] = r
			}
		}
		group[i] = g
	}
	kept := rows[:0]
	for i, r := range rows {
		if g := group[i]; g < 0 || best[g] == r {
			kept = append(kept, r)
		}
	}
	return kept
}
