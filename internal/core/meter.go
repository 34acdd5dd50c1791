package core

import "sync/atomic"

// reserveHeadroom and reserveFloor bound transient worker-side
// reservations: a frozen-epoch match phase may buffer far more candidates
// than it will admit (duplicates and strategy-rejected facts are only
// filtered on the serial admit path, and were never budget-charged by the
// serial engine either), so the reservation ceiling is a runaway-memory
// backstop, not a budget check — reserveHeadroom× the budget, but never
// below reserveFloor so tight user budgets cannot make duplicate-heavy
// batches fail spuriously. Admissions themselves are always metered
// exactly, by the serial admit path.
const (
	reserveHeadroom = 4
	reserveFloor    = 1 << 20
)

// Meter is the engines' derivation budget, safe for concurrent use. The
// serial admission path charges admitted facts exactly (Exhausted/Charge),
// while parallel match workers reserve candidate capacity transiently
// (Reserve) so a batch of a non-terminating program aborts instead of
// buffering unbounded candidate facts. Reservations are released wholesale
// at batch boundaries (ResetPending); they never count as derivations.
type Meter struct {
	limit   int64
	used    atomic.Int64
	pending atomic.Int64

	// Admission counters, written only by the engine's serial admit path
	// (never by match workers), so they need no atomics.
	cands, dups, admits int64
}

// NewMeter returns a meter admitting at most limit derivations.
func NewMeter(limit int) *Meter {
	return &Meter{limit: int64(limit)}
}

// Limit returns the derivation budget.
func (m *Meter) Limit() int { return int(m.limit) }

// SetLimit replaces the derivation budget. It is only safe between runs
// (no workers in flight): raising the budget is how a session resumes
// after a budget-exhausted partial result.
func (m *Meter) SetLimit(limit int) { m.limit = int64(limit) }

// Used returns the number of derivations charged so far.
func (m *Meter) Used() int { return int(m.used.Load()) }

// Charge records one derivation unconditionally (EDB loads, which are
// never rejected).
func (m *Meter) Charge() { m.used.Add(1) }

// Exhausted reports whether the budget admits no further derivation.
// The serial admit path checks it before a candidate reaches the
// termination policy and charges (Charge) only once the fact is stored.
func (m *Meter) Exhausted() bool { return m.used.Load() >= m.limit }

// Reserve transiently accounts n candidate facts a match worker is about
// to buffer; it reports false when charged derivations plus pending
// reservations exceed the runaway ceiling (reserveHeadroom× the budget,
// floored at reserveFloor), telling the worker to stop buffering.
// Whether a batch crosses the ceiling at all is scheduling-independent
// (reservations only accumulate within a batch), though which caller
// observes the crossing is not — engines must turn a failed reservation
// into a whole-batch abort, never a partial one.
func (m *Meter) Reserve(n int) bool {
	p := m.pending.Add(int64(n))
	ceil := reserveHeadroom * m.limit
	if ceil < reserveFloor {
		ceil = reserveFloor
	}
	return m.used.Load()+p <= ceil
}

// ResetPending releases all transient reservations (batch boundary).
func (m *Meter) ResetPending() { m.pending.Store(0) }

// NoteCandidate records one candidate head fact reaching the serial admit
// path; dup reports whether the duplicate check rejected it.
func (m *Meter) NoteCandidate(dup bool) {
	m.cands++
	if dup {
		m.dups++
	}
}

// NoteAdmit records one fact inserted by the serial admit path.
func (m *Meter) NoteAdmit() { m.admits++ }

// ShardStats returns the serial admit path's counters: candidates that
// reached it, duplicates it rejected, and facts it inserted, each as a
// one-element slice (the signature existing callers read).
func (m *Meter) ShardStats() (cands, dups, admits []int64) {
	return []int64{m.cands}, []int64{m.dups}, []int64{m.admits}
}
