package ar

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/bwd"
	"repro/internal/mem"
	"repro/internal/par"
)

// The A&R scan hot path — approximate selection, refinement, release —
// must run at zero heap allocations per query in steady state: every
// buffer it touches cycles through the arena. The guards run the serial
// morsel path (one worker claims every morsel); the parallel path runs the
// same kernels plus a fixed per-query goroutine spawn cost.

type scanFixture struct {
	col    *bwd.Column
	rng    bwd.ApproxRange
	lo, hi int64
}

func newScanFixture(t testing.TB, n int) *scanFixture {
	vals := shuffledInts(n, 7)
	col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(n/4), int64(n/2)
	return &scanFixture{col: col, rng: col.Relax(lo, hi), lo: lo, hi: hi}
}

func runARScan(f *scanFixture) {
	cands := SelectApprox(nil, f.col, f.rng)
	refined, vals := SelectRefine(par.Bill(1), nil, f.col, f.lo, f.hi, cands)
	mem.I64.Put(vals)
	refined.Release()
	cands.Release()
}

func TestARScanZeroAlloc(t *testing.T) {
	f := newScanFixture(t, 50000)
	for i := 0; i < 5; i++ {
		runARScan(f) // warm the arena and the candidate pool
	}
	if n := testing.AllocsPerRun(50, func() { runARScan(f) }); n != 0 {
		if mem.RaceEnabled {
			t.Skipf("%.2f allocs/op under -race (sync.Pool drops Puts); strict guard runs in normal builds", n)
		}
		t.Fatalf("A&R scan allocates %.2f/op in steady state, want 0", n)
	}
}

// BenchmarkHotPathAllocs is the CI smoke target: the bench smoke step runs
// it with -benchtime and asserts 0 allocs/op from the report line.
func BenchmarkHotPathAllocs(b *testing.B) {
	f := newScanFixture(b, 50000)
	for i := 0; i < 5; i++ {
		runARScan(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runARScan(f)
	}
}
