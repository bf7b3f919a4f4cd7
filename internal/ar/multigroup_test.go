package ar

import (
	"testing"

	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

func TestGroupApproxMultiResidentExactPassthrough(t *testing.T) {
	n := 20000
	flags := groupKeys(n, 3, 80)
	status := groupKeys(n, 2, 81)
	sel := shuffledInts(n, 82)
	flagCol := decompose(t, flags, 32)
	statusCol := decompose(t, status, 32)
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(1000, 15000))
	mg := GroupApproxMulti(nil, []*bwd.Column{flagCol, statusCol}, cands)
	if mg.NGroups > 6 {
		t.Fatalf("NGroups = %d, want <= 6 (3 flags x 2 statuses)", mg.NGroups)
	}
	refined, _ := SelectRefine(par.Bill(1), nil, selCol, 1000, 15000, cands)
	grouping, keys, err := GroupRefineMulti(par.Bill(1), nil, mg, refined)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("expected 2 key columns, got %d", len(keys))
	}
	for i, id := range refined.IDs {
		g := grouping.IDs[i]
		if keys[0][g] != flags[id] || keys[1][g] != status[id] {
			t.Fatalf("tuple %d grouped under (%d,%d), want (%d,%d)",
				id, keys[0][g], keys[1][g], flags[id], status[id])
		}
	}
}

func TestGroupRefineMultiDecomposedRegroups(t *testing.T) {
	n := 10000
	keys1 := groupKeys(n, 64, 83)
	keys2 := groupKeys(n, 16, 84)
	sel := shuffledInts(n, 85)
	col1 := decompose(t, keys1, 3) // decomposed: approximate codes collide
	col2 := decompose(t, keys2, 2)
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(0, 6000))
	mg := GroupApproxMulti(nil, []*bwd.Column{col1, col2}, cands)
	refined, _ := SelectRefine(par.Bill(1), nil, selCol, 0, 6000, cands)
	grouping, keys, err := GroupRefineMulti(par.Bill(1), nil, mg, refined)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range refined.IDs {
		g := grouping.IDs[i]
		if keys[0][g] != keys1[id] || keys[1][g] != keys2[id] {
			t.Fatalf("tuple %d grouped under (%d,%d), want (%d,%d)",
				id, keys[0][g], keys[1][g], keys1[id], keys2[id])
		}
	}
	// The approximate pre-grouping must be coarser than the exact one.
	if mg.NGroups >= grouping.NGroups {
		t.Errorf("approximate groups %d >= exact groups %d", mg.NGroups, grouping.NGroups)
	}
}

func TestMultiGroupingShipOnce(t *testing.T) {
	sys := device.PaperSystem()
	n := 5000
	keys := groupKeys(n, 4, 86)
	keyCol := decompose(t, keys, 32)
	selCol := decompose(t, shuffledInts(n, 87), 32)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, 2500))
	mg := GroupApproxMulti(nil, []*bwd.Column{keyCol}, cands)
	m := device.NewMeter(sys)
	mg.Ship(m)
	if m.PCI == 0 {
		t.Error("multi-grouping ship charged nothing")
	}
	before := m.PCI
	mg.Ship(m)
	if m.PCI != before {
		t.Error("double ship charged twice")
	}
}

func TestGroupApproxMultiReusesAttachedCodes(t *testing.T) {
	// When the grouping column was already filtered, its codes are
	// attached to the candidates and GroupApproxMulti must not re-project.
	n := 5000
	keys := groupKeys(n, 8, 88)
	keyCol := decompose(t, keys, 32)
	cands := SelectApprox(nil, keyCol, keyCol.Relax(0, 7))
	mg := GroupApproxMulti(nil, []*bwd.Column{keyCol}, cands)
	codes := cands.CodesFor(keyCol)
	for i := range cands.IDs {
		if mg.Codes[0][mg.IDs[i]] != codes[i] {
			t.Fatal("grouping codes diverge from attached codes")
		}
	}
}
