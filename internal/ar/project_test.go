package ar

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/device"
	"repro/internal/par"
)

// pipeline builds the canonical two-column plan of Fig 3: select on one
// column, project another.
func TestProjectApproxRefineMatchesBulk(t *testing.T) {
	n := 30000
	dates := shuffledInts(n, 20)
	prices := shuffledInts(n, 21)
	dateCol := decompose(t, dates, 9)
	priceCol := decompose(t, prices, 9)

	lo, hi := int64(5000), int64(12000)
	cands := SelectApprox(nil, dateCol, dateCol.Relax(lo, hi))
	proj := ProjectApprox(nil, priceCol, cands)
	cands.Ship(nil)
	proj.Ship(nil)
	refined, _ := SelectRefine(par.Bill(1), nil, dateCol, lo, hi, cands)
	got, err := ProjectRefine(par.Bill(1), nil, proj, refined)
	if err != nil {
		t.Fatalf("ProjectRefine: %v", err)
	}

	// Baseline: bulk select then fetch.
	ids := bulk.SelectRange(par.Bill(1), nil, bat.NewDense(dates, bat.Width32), lo, hi)
	wantVals := bulk.Fetch(par.Bill(1), nil, bat.NewDense(prices, bat.Width32), ids)

	if len(got) != len(wantVals) {
		t.Fatalf("projection size = %d, want %d", len(got), len(wantVals))
	}
	// Compare as multisets keyed by tuple id (orders differ).
	byID := make(map[bat.OID]int64, len(refined.IDs))
	for i, id := range refined.IDs {
		byID[id] = got[i]
	}
	for i, id := range ids {
		if byID[id] != wantVals[i] {
			t.Fatalf("projected value for id %d = %d, want %d", id, byID[id], wantVals[i])
		}
	}
}

func TestProjectRefineUsesTranslucentJoin(t *testing.T) {
	// The refined set is a strict subset in the same permuted order: the
	// merge path of Algorithm 1 must resolve it.
	n := 5000
	a := shuffledInts(n, 22)
	b := shuffledInts(n, 23)
	colA := decompose(t, a, 6)
	colB := decompose(t, b, 6)

	cands := SelectApprox(nil, colA, colA.Relax(100, 2500))
	proj := ProjectApprox(nil, colB, cands)
	refined, _ := SelectRefine(par.Bill(1), nil, colA, 100, 2500, cands)
	if len(refined.IDs) == cands.Len() {
		t.Fatal("test needs false positives to be meaningful")
	}
	got, err := ProjectRefine(par.Bill(1), nil, proj, refined)
	if err != nil {
		t.Fatalf("ProjectRefine: %v", err)
	}
	for i, id := range refined.IDs {
		if got[i] != b[id] {
			t.Fatalf("value for id %d = %d, want %d", id, got[i], b[id])
		}
	}
}

func TestProjectRefineRejectsForeignSubset(t *testing.T) {
	n := 1000
	a := shuffledInts(n, 24)
	colA := decompose(t, a, 6)
	cands := SelectApprox(nil, colA, colA.Relax(0, 100))
	proj := ProjectApprox(nil, colA, cands)
	// A candidate set that is NOT a subset of the projection's source.
	foreign := &Candidates{IDs: []bat.OID{bat.OID(n - 1), 0}}
	if cands.Len() < 2 {
		t.Skip("not enough candidates")
	}
	if _, err := ProjectRefine(par.Bill(1), nil, proj, foreign); err == nil {
		t.Error("foreign subset accepted by translucent join")
	}
}

func TestProjectExactFlag(t *testing.T) {
	n := 1000
	vals := shuffledInts(n, 25)
	resident := decompose(t, vals, 32)
	split := decompose(t, vals, 5)
	cands := SelectApprox(nil, resident, resident.Relax(0, 100))
	if !ProjectApprox(nil, resident, cands).Exact() {
		t.Error("fully resident projection not Exact")
	}
	cands2 := SelectApprox(nil, split, split.Relax(0, 100))
	if ProjectApprox(nil, split, cands2).Exact() {
		t.Error("decomposed projection claims Exact")
	}
}

func TestProjectApproxAt(t *testing.T) {
	// Dimension projection through explicit positions (FK join path).
	dim := []int64{100, 200, 300, 400}
	dimCol := decompose(t, dim, 32)
	fact := shuffledInts(100, 26)
	factCol := decompose(t, fact, 32)
	cands := SelectApprox(nil, factCol, factCol.Relax(0, 99))
	at := make([]bat.OID, cands.Len())
	for i := range at {
		at[i] = bat.OID(int(cands.IDs[i]) % len(dim))
	}
	proj := ProjectApproxAt(nil, dimCol, cands, at)
	for i := range at {
		want := dim[at[i]]
		if got := proj.ApproxLow(i); got != want {
			t.Fatalf("ApproxLow[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestProjectionShipCharges(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	vals := shuffledInts(10000, 27)
	col := decompose(t, vals, 8)
	cands := SelectApprox(nil, col, col.Relax(0, 5000))
	proj := ProjectApprox(m, col, cands)
	if m.GPU == 0 {
		t.Error("approximate projection charged no GPU time")
	}
	proj.Ship(m)
	if m.PCI == 0 {
		t.Error("projection ship charged no PCI time")
	}
	before := m.PCI
	proj.Ship(m)
	if m.PCI != before {
		t.Error("double ship charged twice")
	}
}
