package eval

import (
	"slices"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/term"
)

// BindingLog is a packed log of complete rule bindings, the hand-off
// between the parallel chase's match phase and its serial admit phase: a
// worker goroutine enumerating matches against a frozen storage epoch
// captures each complete binding (slot values plus matched parents) into
// its task's log, and the engine later restores them — in task order, on
// one goroutine — to run the side-effecting emit path (aggregation, EGD
// unification, existential instantiation, admission). Captured values are
// decoded to term.Values, so a restored binding never needs the worker's
// interner state.
//
// Entries are packed into flat arrays (slot stride NSlots, parent stride
// len(Pos)) so capturing a match costs amortized appends, not per-match
// allocations. A BindingLog belongs to one task at a time; Reset rebinds
// it to a rule shape and clears it.
type BindingLog struct {
	n      int
	nslots int
	npos   int

	vals    []term.Value
	bound   []bool
	parents []*core.FactMeta
	rows    []int32 // matched storage rows per entry (stride npos)

	// Err is the error that aborted the producing enumeration, if any; the
	// engine surfaces it after replaying the captured prefix, which is
	// exactly the order the serial engine would have observed.
	Err error
}

// Reset clears the log and shapes it for capturing matches of cr. The
// previous batch's entries are zeroed before truncation so captured
// values and parent metadata do not stay reachable through the buffers'
// capacity for the engine's lifetime (the cost is proportional to the
// work the previous batch actually did).
func (lg *BindingLog) Reset(cr *CompiledRule) {
	clear(lg.vals)
	clear(lg.parents)
	lg.n = 0
	lg.nslots = cr.NSlots
	lg.npos = len(cr.Pos)
	lg.vals = lg.vals[:0]
	lg.bound = lg.bound[:0]
	lg.parents = lg.parents[:0]
	lg.rows = lg.rows[:0]
	lg.Err = nil
}

// Len returns the number of captured bindings.
func (lg *BindingLog) Len() int { return lg.n }

// Capture appends the bound slots and matched parents of b. It must be
// called from the binding's own enumeration (one goroutine per log).
func (lg *BindingLog) Capture(b *Binding) {
	for s := 0; s < lg.nslots; s++ {
		if b.Bound[s] {
			lg.vals = append(lg.vals, b.Val(s))
			lg.bound = append(lg.bound, true)
		} else {
			lg.vals = append(lg.vals, term.Value{})
			lg.bound = append(lg.bound, false)
		}
	}
	lg.parents = append(lg.parents, b.Parents[:lg.npos]...)
	lg.rows = append(lg.rows, b.ParentRows[:lg.npos]...)
	lg.n++
}

// Restore rebuilds the i-th captured binding into b (decoding through in
// where needed). b must have been allocated for the same rule the log was
// Reset with — or, for CSE body sharing, for a member rule whose body
// slots coincide with the log's rule: slots past the log's stride are
// cleared, so a wider member binding never sees a previous entry's
// leftovers.
func (lg *BindingLog) Restore(i int, in *storage.Interner, b *Binding) {
	b.in = in
	off := i * lg.nslots
	for s := 0; s < lg.nslots; s++ {
		if lg.bound[off+s] {
			b.Set(s, lg.vals[off+s])
		} else {
			b.Bound[s] = false
			b.hasVal[s] = false
		}
	}
	for s := lg.nslots; s < len(b.Bound); s++ {
		b.Bound[s] = false
		b.hasVal[s] = false
	}
	copy(b.Parents, lg.parents[i*lg.npos:(i+1)*lg.npos])
	copy(b.ParentRows, lg.rows[i*lg.npos:(i+1)*lg.npos])
}

// CanonicalOrder appends to perm[:0] the entry indexes in canonical
// admission order: ascending lexicographic comparison of the matched
// storage rows in body-atom source order. The key depends only on which
// rows matched, never on the join order that enumerated them, so every
// plan choice — static, cost-based, or deliberately worst-case — admits
// the same candidates in the same order, which is what keeps reasoning
// output byte-identical across plans. Entries with equal keys are
// identical bindings, so their relative order is immaterial.
func (lg *BindingLog) CanonicalOrder(perm []int32) []int32 {
	perm = perm[:0]
	for i := 0; i < lg.n; i++ {
		perm = append(perm, int32(i))
	}
	if lg.n < 2 || lg.npos < 2 {
		return perm // ≤1 entry, or a single atom enumerated in row order
	}
	rows, np := lg.rows, lg.npos
	slices.SortFunc(perm, func(a, b int32) int {
		return slices.Compare(rows[int(a)*np:int(a)*np+np], rows[int(b)*np:int(b)*np+np])
	})
	return perm
}
