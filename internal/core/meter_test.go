package core

import (
	"sync"
	"testing"
)

func TestMeterCharges(t *testing.T) {
	m := NewMeter(3)
	m.Charge() // unconditional (EDB)
	for i := 0; i < 2; i++ {
		if m.Exhausted() {
			t.Fatal("budget exhausted before the limit")
		}
		m.Charge()
	}
	if !m.Exhausted() {
		t.Fatal("budget not exhausted at the limit")
	}
	if m.Used() != 3 {
		t.Fatalf("used: %d", m.Used())
	}
	// Unconditional charges may exceed the budget (loads are never
	// rejected); the budget stays exhausted.
	m.Charge()
	if m.Used() != 4 || !m.Exhausted() {
		t.Fatalf("used=%d after overload", m.Used())
	}
}

func TestMeterReserveHeadroom(t *testing.T) {
	// A tight budget still gets the reservation floor: candidate buffering
	// is a runaway backstop, not a budget check, so duplicate-heavy
	// batches under small MaxDerivations must not trip it.
	m := NewMeter(10)
	if !m.Reserve(reserveFloor) {
		t.Fatal("reservations up to the floor rejected under a tight budget")
	}
	if m.Reserve(1) {
		t.Fatal("reservation beyond the floor accepted")
	}
	m.ResetPending()
	if !m.Reserve(1) {
		t.Fatal("reservation after reset rejected")
	}
	if m.Used() != 0 {
		t.Fatalf("reservations must not count as derivations: %d", m.Used())
	}
	// A budget above the floor scales the ceiling by the headroom factor.
	big := NewMeter(reserveFloor)
	if !big.Reserve(reserveHeadroom * reserveFloor) {
		t.Fatal("headroom-scaled ceiling rejected in-bounds reservation")
	}
	if big.Reserve(1) {
		t.Fatal("reservation beyond the scaled ceiling accepted")
	}
}

func TestMeterConcurrentReserve(t *testing.T) {
	m := NewMeter(10)
	const chunk = reserveFloor / 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := 0
			for i := 0; i < 1; i++ {
				if !m.Reserve(chunk) {
					mine++
				}
			}
			mu.Lock()
			rejected += mine
			mu.Unlock()
		}()
	}
	wg.Wait()
	// 8 chunks of floor/4 against the floor ceiling: exactly 4 must fail.
	if rejected != 4 {
		t.Fatalf("rejected %d chunks, want 4", rejected)
	}
}
