package bulk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/device"
	"repro/internal/par"
)

func intsBAT(vals ...int64) *bat.BAT { return bat.NewDense(vals, bat.Width32) }

func TestSelectRange(t *testing.T) {
	b := intsBAT(5, 1, 9, 3, 7, 3)
	got := SelectRange(par.Bill(1), nil, b, 3, 7)
	want := []bat.OID{0, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSelectRangeEmptyAndAll(t *testing.T) {
	b := intsBAT(1, 2, 3)
	if got := SelectRange(par.Bill(1), nil, b, 10, 20); len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
	if got := SelectRange(par.Bill(1), nil, b, -100, 100); len(got) != 3 {
		t.Errorf("covering range returned %d ids, want 3", len(got))
	}
}

func TestSelectRangeOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	got := SelectRange(par.Bill(1), nil, intsBAT(vals...), 100, 500)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("bulk selection must be order-preserving (§IV-A item 2)")
		}
	}
}

func TestSelectOIDsSubsetsCandidates(t *testing.T) {
	b := intsBAT(10, 20, 30, 40, 50)
	cands := []bat.OID{4, 1, 3}
	got := SelectOIDs(par.Bill(1), nil, b, cands, 20, 40)
	want := []bat.OID{1, 3} // candidate order preserved
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestFetch(t *testing.T) {
	b := intsBAT(100, 200, 300)
	got := Fetch(par.Bill(1), nil, b, []bat.OID{2, 0})
	if got[0] != 300 || got[1] != 100 {
		t.Errorf("Fetch = %v, want [300 100]", got)
	}
}

func TestGroupByDenseFirstAppearance(t *testing.T) {
	g := GroupBy(par.Bill(1), nil, []int64{7, 3, 7, 9, 3})
	if g.NGroups != 3 {
		t.Fatalf("NGroups = %d, want 3", g.NGroups)
	}
	wantIDs := []uint32{0, 1, 0, 2, 1}
	for i, w := range wantIDs {
		if g.IDs[i] != w {
			t.Errorf("IDs[%d] = %d, want %d", i, g.IDs[i], w)
		}
	}
	wantKeys := []int64{7, 3, 9}
	for i, w := range wantKeys {
		if g.Keys[i] != w {
			t.Errorf("Keys[%d] = %d, want %d", i, g.Keys[i], w)
		}
	}
}

func TestGroupByPropertyPartition(t *testing.T) {
	f := func(keys []int64) bool {
		g := GroupBy(par.Bill(1), nil, keys)
		if len(g.IDs) != len(keys) {
			return false
		}
		for i, k := range keys {
			if g.Keys[g.IDs[i]] != k {
				return false // group id must map back to the original key
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGroupedAggregates(t *testing.T) {
	keys := []int64{1, 2, 1, 2, 1}
	vals := []int64{10, 20, 30, 40, 50}
	g := GroupBy(par.Bill(1), nil, keys)
	sums := SumGrouped(par.Bill(1), nil, vals, g)
	if sums[0] != 90 || sums[1] != 60 {
		t.Errorf("sums = %v, want [90 60]", sums)
	}
	counts := CountGrouped(par.Bill(1), nil, g)
	if counts[0] != 3 || counts[1] != 2 {
		t.Errorf("counts = %v, want [3 2]", counts)
	}
	mins := MinGrouped(par.Bill(1), nil, vals, g)
	if mins[0] != 10 || mins[1] != 20 {
		t.Errorf("mins = %v, want [10 20]", mins)
	}
	maxs := MaxGrouped(par.Bill(1), nil, vals, g)
	if maxs[0] != 50 || maxs[1] != 40 {
		t.Errorf("maxs = %v, want [50 40]", maxs)
	}
}

func TestGlobalAggregates(t *testing.T) {
	vals := []int64{3, -1, 7, 0}
	if s := Sum(par.Bill(1), nil, vals); s != 9 {
		t.Errorf("Sum = %d, want 9", s)
	}
	if lo, ok := Min(par.Bill(1), nil, vals); !ok || lo != -1 {
		t.Errorf("Min = %d,%v, want -1,true", lo, ok)
	}
	if hi, ok := Max(par.Bill(1), nil, vals); !ok || hi != 7 {
		t.Errorf("Max = %d,%v, want 7,true", hi, ok)
	}
	if _, ok := Min(par.Bill(1), nil, nil); ok {
		t.Error("Min on empty input reported ok")
	}
	if _, ok := Max(par.Bill(1), nil, nil); ok {
		t.Error("Max on empty input reported ok")
	}
}

func TestFKIndexAndJoin(t *testing.T) {
	pk := []int64{100, 101, 102, 103, 104}
	ix := BuildFKIndex(pk)
	if ix == nil {
		t.Fatal("BuildFKIndex returned nil for a valid PK")
	}
	fks := []int64{103, 100, 999, 104}
	pos, hit := FKJoin(par.Bill(1), nil, ix, fks)
	wantPos := []bat.OID{3, 0, 0, 4}
	wantHit := []bool{true, true, false, true}
	for i := range fks {
		if hit[i] != wantHit[i] {
			t.Errorf("hit[%d] = %v, want %v", i, hit[i], wantHit[i])
		}
		if hit[i] && pos[i] != wantPos[i] {
			t.Errorf("pos[%d] = %d, want %d", i, pos[i], wantPos[i])
		}
	}
}

func TestBuildFKIndexRejectsDuplicates(t *testing.T) {
	if ix := BuildFKIndex([]int64{1, 2, 2}); ix != nil {
		t.Error("duplicate keys accepted as PK")
	}
}

func TestBuildFKIndexRejectsSparse(t *testing.T) {
	if ix := BuildFKIndex([]int64{0, 1 << 40}); ix != nil {
		t.Error("extremely sparse domain accepted")
	}
	if ix := BuildFKIndex(nil); ix != nil {
		t.Error("empty PK accepted")
	}
}

func TestMeteredOperatorsCharge(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(i)
	}
	b := bat.NewDense(vals, bat.Width32)
	SelectRange(par.Bill(1), m, b, 0, 1000)
	if m.CPU == 0 {
		t.Error("metered SelectRange charged nothing")
	}
	if m.GPU != 0 || m.PCI != 0 {
		t.Error("CPU operator charged GPU/PCI time")
	}
	before := m.CPU
	Fetch(par.Bill(1), m, b, []bat.OID{1, 2, 3})
	if m.CPU <= before {
		t.Error("metered Fetch charged nothing")
	}
}

// TestParallelKernelsMatchSerial asserts byte-identical output between the
// serial kernels and their morsel-parallel forms across worker counts and
// morsel sizes, including the first-appearance group order that downstream
// results depend on.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 40_000
	vals := make([]int64, n)
	keys := make([]int64, n)
	keys2 := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(100_000)) - 50_000
		keys[i] = int64(rng.Intn(97))
		keys2[i] = int64(rng.Intn(11))
	}
	b := bat.NewDense(vals, bat.Width32)
	wantIDs := SelectRange(par.Bill(1), nil, b, -20_000, 20_000)
	wantFetch := Fetch(par.Bill(1), nil, b, wantIDs)
	wantSub := SelectOIDs(par.Bill(1), nil, b, wantIDs, -5_000, 5_000)
	wantG := GroupBy(par.Bill(1), nil, keys)
	wantGM, wantKeysM := GroupByMulti(par.Bill(1), nil, [][]int64{keys, keys2})
	wantSums := SumGrouped(par.Bill(1), nil, vals, wantG)
	wantCounts := CountGrouped(par.Bill(1), nil, wantG)
	wantMins := MinGrouped(par.Bill(1), nil, vals, wantG)
	wantMaxs := MaxGrouped(par.Bill(1), nil, vals, wantG)
	wantSum := Sum(par.Bill(1), nil, vals)
	wantMin, _ := Min(par.Bill(1), nil, vals)
	wantMax, _ := Max(par.Bill(1), nil, vals)

	eqOID := func(t *testing.T, what string, got, want []bat.OID) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
			}
		}
	}
	eq64 := func(t *testing.T, what string, got, want []int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
			}
		}
	}
	for _, workers := range []int{2, 3, 4, 8} {
		for _, chunk := range []int{0, 1, 97, 4096} {
			p := par.P{Threads: 1, Workers: workers, Chunk: chunk}
			t.Run("", func(t *testing.T) {
				eqOID(t, "SelectRange", SelectRange(p, nil, b, -20_000, 20_000), wantIDs)
				eq64(t, "Fetch", Fetch(p, nil, b, wantIDs), wantFetch)
				eqOID(t, "SelectOIDs", SelectOIDs(p, nil, b, wantIDs, -5_000, 5_000), wantSub)
				g := GroupBy(p, nil, keys)
				if g.NGroups != wantG.NGroups {
					t.Fatalf("GroupBy: %d groups, want %d", g.NGroups, wantG.NGroups)
				}
				eq64(t, "GroupBy keys", g.Keys, wantG.Keys)
				for i := range wantG.IDs {
					if g.IDs[i] != wantG.IDs[i] {
						t.Fatalf("GroupBy IDs[%d] = %d, want %d", i, g.IDs[i], wantG.IDs[i])
					}
				}
				gm, keysM := GroupByMulti(p, nil, [][]int64{keys, keys2})
				if gm.NGroups != wantGM.NGroups {
					t.Fatalf("GroupByMulti: %d groups, want %d", gm.NGroups, wantGM.NGroups)
				}
				for i := range wantGM.IDs {
					if gm.IDs[i] != wantGM.IDs[i] {
						t.Fatalf("GroupByMulti IDs[%d] = %d, want %d", i, gm.IDs[i], wantGM.IDs[i])
					}
				}
				for k := range wantKeysM {
					eq64(t, "GroupByMulti keys", keysM[k], wantKeysM[k])
				}
				eq64(t, "SumGrouped", SumGrouped(p, nil, vals, wantG), wantSums)
				eq64(t, "CountGrouped", CountGrouped(p, nil, wantG), wantCounts)
				eq64(t, "MinGrouped", MinGrouped(p, nil, vals, wantG), wantMins)
				eq64(t, "MaxGrouped", MaxGrouped(p, nil, vals, wantG), wantMaxs)
				if got := Sum(p, nil, vals); got != wantSum {
					t.Fatalf("Sum = %d, want %d", got, wantSum)
				}
				if got, _ := Min(p, nil, vals); got != wantMin {
					t.Fatalf("Min = %d, want %d", got, wantMin)
				}
				if got, _ := Max(p, nil, vals); got != wantMax {
					t.Fatalf("Max = %d, want %d", got, wantMax)
				}
			})
		}
	}
}

// TestParallelChargesMatchSerial pins the meter-identity invariant: a
// kernel's simulated charge depends only on the billed thread count, never
// on the worker budget or morsel size.
func TestParallelChargesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 50_000
	vals := make([]int64, n)
	keys := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(1_000_000))
		keys[i] = int64(rng.Intn(50))
	}
	b := bat.NewDense(vals, bat.Width32)
	sys := device.PaperSystem()
	run := func(p par.P) *device.Meter {
		m := device.NewMeter(sys)
		ids := SelectRange(p, m, b, 0, 500_000)
		Fetch(p, m, b, ids)
		g := GroupBy(p, m, keys)
		SumGrouped(p, m, vals, g)
		CountGrouped(p, m, g)
		Sum(p, m, vals)
		return m
	}
	for _, threads := range []int{1, 4} {
		want := run(par.Bill(threads))
		for _, workers := range []int{2, 8} {
			got := run(par.P{Threads: threads, Workers: workers, Chunk: 777})
			if got.CPU != want.CPU || got.GPU != want.GPU || got.PCI != want.PCI {
				t.Fatalf("threads=%d workers=%d: meter %v != serial %v", threads, workers, got, want)
			}
		}
	}
}

func BenchmarkSelectRange(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = int64(rng.Intn(1 << 20))
	}
	bb := bat.NewDense(vals, bat.Width32)
	b.SetBytes(int64(len(vals)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectRange(par.Bill(1), nil, bb, 0, 1<<18)
	}
}

func BenchmarkGroupBy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
	}
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupBy(par.Bill(1), nil, keys)
	}
}
