package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

func groupKeys(n, groups int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(groups))
	}
	return out
}

func TestGroupApproxRefineResidentColumn(t *testing.T) {
	// Low-cardinality grouping column, fully device resident after
	// compression — the common case the paper expects (§IV-E).
	n := 20000
	keys := groupKeys(n, 16, 30)
	sel := shuffledInts(n, 31)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, sel, 7)

	cands := SelectApprox(nil, selCol, selCol.Relax(1000, 9000))
	grouping := GroupApprox(nil, keyCol, cands)
	grouping.Ship(nil)
	refined, _ := SelectRefine(par.Bill(1), nil, selCol, 1000, 9000, cands)
	got, err := GroupRefine(par.Bill(1), nil, grouping, refined)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}

	if len(got.IDs) != len(refined.IDs) {
		t.Fatalf("grouping covers %d tuples, want %d", len(got.IDs), len(refined.IDs))
	}
	for i, id := range refined.IDs {
		if got.Keys[got.IDs[i]] != keys[id] {
			t.Fatalf("tuple %d grouped under key %d, want %d", id, got.Keys[got.IDs[i]], keys[id])
		}
	}
}

func TestGroupRefineDecomposedColumnRegroups(t *testing.T) {
	n := 10000
	keys := groupKeys(n, 1000, 32)
	sel := shuffledInts(n, 33)
	keyCol := decompose(t, keys, 4) // decomposed: approximate groups collide
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(0, 5000))
	grouping := GroupApprox(nil, keyCol, cands)
	refined, _ := SelectRefine(par.Bill(1), nil, selCol, 0, 5000, cands)
	got, err := GroupRefine(par.Bill(1), nil, grouping, refined)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}
	for i, id := range refined.IDs {
		if got.Keys[got.IDs[i]] != keys[id] {
			t.Fatalf("tuple %d grouped under key %d, want %d", id, got.Keys[got.IDs[i]], keys[id])
		}
	}
	// The approximate pre-grouping must have fewer groups than the exact
	// one (codes collide), demonstrating it is genuinely approximate.
	if grouping.NGroups >= got.NGroups {
		t.Errorf("approximate groups %d >= exact groups %d; decomposition had no effect",
			grouping.NGroups, got.NGroups)
	}
}

func TestGroupApproxMatchesBulkOnFullSelection(t *testing.T) {
	n := 5000
	keys := groupKeys(n, 8, 34)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, shuffledInts(n, 35), 32)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, int64(n)))
	grouping := GroupApprox(nil, keyCol, cands)
	refined, _ := SelectRefine(par.Bill(1), nil, selCol, 0, int64(n), cands)
	got, err := GroupRefine(par.Bill(1), nil, grouping, refined)
	if err != nil {
		t.Fatalf("GroupRefine: %v", err)
	}

	want := bulk.GroupBy(par.Bill(1), nil, keys)
	if got.NGroups != want.NGroups {
		t.Fatalf("NGroups = %d, want %d", got.NGroups, want.NGroups)
	}
	// Aggregate counts per key must agree regardless of id order.
	wantCounts := map[int64]int64{}
	for i, g := range want.IDs {
		_ = i
		wantCounts[want.Keys[g]]++
	}
	gotCounts := map[int64]int64{}
	for _, g := range got.IDs {
		gotCounts[got.Keys[g]]++
	}
	for k, w := range wantCounts {
		if gotCounts[k] != w {
			t.Errorf("count for key %d = %d, want %d", k, gotCounts[k], w)
		}
	}
}

func TestGroupConflictCostDecreasesWithGroups(t *testing.T) {
	sys := device.PaperSystem()
	n := 200000
	sel := shuffledInts(n, 36)
	cost := func(groups int) float64 {
		keys := groupKeys(n, groups, int64(37+groups))
		keyCol, err := bwd.Decompose(bat.NewDense(keys, bat.Width32), 32, nil)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		selCol, err := bwd.Decompose(bat.NewDense(sel, bat.Width32), 32, nil)
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		m := device.NewMeter(sys)
		cands := SelectApprox(nil, selCol, selCol.Relax(0, int64(n)))
		GroupApprox(m, keyCol, cands)
		return m.GPU.Seconds()
	}
	t10, t1000 := cost(10), cost(1000)
	if t1000 >= t10 {
		t.Errorf("grouping cost must fall with group count (Fig 8f): 10 groups %.4fs vs 1000 groups %.4fs", t10, t1000)
	}
	if t10/t1000 < 2 {
		t.Errorf("conflict penalty too weak to reproduce Fig 8f: ratio %.2f", t10/t1000)
	}
}
