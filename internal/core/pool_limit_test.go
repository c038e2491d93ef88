package core

import "testing"

// TestPoolByteBudget: the idle byte budget bounds total parked
// footprint across shapes, evicting oldest-returned first, and
// SetLimit applies retroactively to machines already parked.
func TestPoolByteBudget(t *testing.T) {
	p := NewPool()
	small, err := p.Get(1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := p.Get(2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := small.Footprint() + big.Footprint()
	p.Put(small)
	p.Put(big)
	if st := p.Stats(); st.Idle != 2 || st.IdleBytes != budget {
		t.Fatalf("stats = %+v, want 2 idle / %d bytes", st, budget)
	}
	// Shrink the budget below the big machine alone: both the oldest
	// (small) and then anything still over must go until it fits.
	p.SetLimit(big.Footprint())
	st := p.Stats()
	if st.IdleBytes > big.Footprint() {
		t.Fatalf("idle bytes %d over budget %d", st.IdleBytes, big.Footprint())
	}
	if st.Idle != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want the oldest machine evicted", st)
	}
}

// TestFootprintScalesWithGrid: the byte estimate must grow with the
// core count or budgets are meaningless.
func TestFootprintScalesWithGrid(t *testing.T) {
	small := MustNew(1, 1, Options{})
	big := MustNew(2, 2, Options{})
	if big.Footprint() != 4*small.Footprint() {
		t.Fatalf("footprints %d / %d do not scale with cores",
			small.Footprint(), big.Footprint())
	}
	if small.Footprint() < 1<<20 {
		t.Fatalf("16-core slice footprint %d implausibly small", small.Footprint())
	}
}
