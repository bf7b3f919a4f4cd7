package ar

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/bulk"
	"repro/internal/bwd"
	"repro/internal/device"
	"repro/internal/par"
)

func decompose(t *testing.T, vals []int64, bits uint) *bwd.Column {
	t.Helper()
	col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), bits, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	return col
}

func shuffledInts(n int, seed int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

func sortedIDs(ids []bat.OID) []bat.OID {
	out := append([]bat.OID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSelectApproxSupersetOfExact(t *testing.T) {
	vals := shuffledInts(10000, 1)
	col := decompose(t, vals, 8) // aggressive decomposition: many FPs
	lo, hi := int64(1000), int64(2000)
	cands := SelectApprox(nil, col, col.Relax(lo, hi))
	exact := bulk.SelectRange(par.Bill(1), nil, bat.NewDense(vals, bat.Width32), lo, hi)

	inCand := make(map[bat.OID]bool, cands.Len())
	for _, id := range cands.IDs {
		inCand[id] = true
	}
	for _, id := range exact {
		if !inCand[id] {
			t.Fatalf("exact id %d missing from approximate candidates", id)
		}
	}
	if cands.Len() < len(exact) {
		t.Fatalf("candidate set smaller than exact result: %d < %d", cands.Len(), len(exact))
	}
}

func TestSelectApproxOutputIsPermuted(t *testing.T) {
	vals := shuffledInts(200000, 2)
	col := decompose(t, vals, 10)
	cands := SelectApprox(nil, col, col.Relax(0, 199999)) // select everything
	if cands.Len() != 200000 {
		t.Fatalf("Len = %d, want 200000", cands.Len())
	}
	monotone := true
	for i := 1; i < cands.Len(); i++ {
		if cands.IDs[i] < cands.IDs[i-1] {
			monotone = false
			break
		}
	}
	if monotone {
		t.Error("device selection preserved input order; §IV-A item 3 not modelled")
	}
}

func TestSelectRefineEqualsBulkBaseline(t *testing.T) {
	f := func(seed int64, rawBits uint8, rawLo, rawHi uint16) bool {
		n := 3000
		vals := shuffledInts(n, seed)
		col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), uint(rawBits%14)+1, nil)
		if err != nil {
			return false
		}
		lo, hi := int64(rawLo)%int64(n), int64(rawHi)%int64(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		cands := SelectApprox(nil, col, col.Relax(lo, hi))
		cands.Ship(nil)
		refined, refVals := SelectRefine(par.Bill(1), nil, col, lo, hi, cands)

		want := bulk.SelectRange(par.Bill(1), nil, bat.NewDense(vals, bat.Width32), lo, hi)
		if len(refined.IDs) != len(want) {
			return false
		}
		got := sortedIDs(refined.IDs)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		// Values must be the exact reconstructed attribute values.
		for i, id := range refined.IDs {
			if refVals[i] != vals[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSelectRefinePreservesCandidateOrder(t *testing.T) {
	vals := shuffledInts(50000, 3)
	col := decompose(t, vals, 9)
	cands := SelectApprox(nil, col, col.Relax(100, 40000))
	refined, _ := SelectRefine(par.Bill(1), nil, col, 100, 40000, cands)

	// refined.IDs must be a subsequence of cands.IDs.
	j := 0
	for _, id := range refined.IDs {
		for j < len(cands.IDs) && cands.IDs[j] != id {
			j++
		}
		if j == len(cands.IDs) {
			t.Fatal("refined output is not an order-preserving subset of candidates")
		}
		j++
	}
}

func TestSelectApproxOverConjunction(t *testing.T) {
	// Two columns, conjunctive range predicates — the spatial query shape.
	n := 20000
	a := shuffledInts(n, 4)
	b := shuffledInts(n, 5)
	colA := decompose(t, a, 8)
	colB := decompose(t, b, 8)

	c1 := SelectApprox(nil, colA, colA.Relax(1000, 5000))
	c2 := SelectApproxOver(nil, colB, colB.Relax(2000, 9000), c1)
	c2.Ship(nil)
	r1, _ := SelectRefine(par.Bill(1), nil, colA, 1000, 5000, c2)
	r2, valsB := SelectRefine(par.Bill(1), nil, colB, 2000, 9000, r1)

	// Ground truth via the bulk baseline.
	bb := bat.NewDense(b, bat.Width32)
	idsA := bulk.SelectRange(par.Bill(1), nil, bat.NewDense(a, bat.Width32), 1000, 5000)
	want := bulk.SelectOIDs(par.Bill(1), nil, bb, idsA, 2000, 9000)

	if len(r2.IDs) != len(want) {
		t.Fatalf("conjunction size = %d, want %d", len(r2.IDs), len(want))
	}
	got := sortedIDs(r2.IDs)
	wantSorted := sortedIDs(want)
	for i := range want {
		if got[i] != wantSorted[i] {
			t.Fatalf("conjunction ids diverge at %d", i)
		}
	}
	for i, id := range r2.IDs {
		if valsB[i] != b[id] {
			t.Fatalf("exact value mismatch at id %d", id)
		}
	}
}

func TestSelectEmptyRelaxedRange(t *testing.T) {
	vals := shuffledInts(1000, 6)
	col := decompose(t, vals, 8)
	cands := SelectApprox(nil, col, col.Relax(5000, 9000)) // above domain
	if cands.Len() != 0 {
		t.Errorf("empty relaxed range produced %d candidates", cands.Len())
	}
	refined, refVals := SelectRefine(par.Bill(1), nil, col, 5000, 9000, cands)
	if len(refined.IDs) != 0 || len(refVals) != 0 {
		t.Error("refinement of empty candidates not empty")
	}
}

func TestSelectFullyResidentColumnRefinementIsExactPassthrough(t *testing.T) {
	vals := shuffledInts(1000, 7)
	col := decompose(t, vals, 32) // 10 total bits -> fully GPU resident
	if col.Dec.ResBits != 0 {
		t.Fatalf("expected fully resident column, ResBits = %d", col.Dec.ResBits)
	}
	lo, hi := int64(100), int64(300)
	cands := SelectApprox(nil, col, col.Relax(lo, hi))
	want := bulk.SelectRange(par.Bill(1), nil, bat.NewDense(vals, bat.Width32), lo, hi)
	if cands.Len() != len(want) {
		t.Fatalf("fully resident approximation has %d candidates, want exact %d", cands.Len(), len(want))
	}
	refined, _ := SelectRefine(par.Bill(1), nil, col, lo, hi, cands)
	if len(refined.IDs) != len(want) {
		t.Error("refinement changed an already-exact result")
	}
}

func TestSelectChargesDevices(t *testing.T) {
	sys := device.PaperSystem()
	m := device.NewMeter(sys)
	vals := shuffledInts(100000, 8)
	col, err := bwd.Decompose(bat.NewDense(vals, bat.Width32), 9, sys)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	cands := SelectApprox(m, col, col.Relax(0, 10000))
	if m.GPU == 0 {
		t.Error("approximate selection charged no GPU time")
	}
	if m.CPU != 0 {
		t.Error("approximate selection charged CPU time")
	}
	cands.Ship(m)
	if m.PCI == 0 {
		t.Error("shipping candidates charged no PCI time")
	}
	pciBefore := m.PCI
	cands.Ship(m)
	if m.PCI != pciBefore {
		t.Error("double ship charged twice")
	}
	SelectRefine(par.Bill(1), m, col, 0, 10000, cands)
	if m.CPU == 0 {
		t.Error("refinement charged no CPU time")
	}
}

func TestCertainFlagsBoundaryBuckets(t *testing.T) {
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := decompose(t, vals, 6) // 10 bits -> 6/4: bucket size 16
	lo, hi := int64(100), int64(200)
	cands := SelectApprox(nil, col, col.Relax(lo, hi))
	for i, id := range cands.IDs {
		v := vals[id]
		bucketLo := v/16 == lo/16
		bucketHi := v/16 == hi/16
		if cands.Certain(i) && (bucketLo || bucketHi) {
			t.Fatalf("boundary-bucket candidate %d flagged certain", v)
		}
		if !cands.Certain(i) && !bucketLo && !bucketHi {
			t.Fatalf("interior candidate %d flagged uncertain", v)
		}
	}
}
