package ar

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
)

func TestFKPositionsApproxDensePK(t *testing.T) {
	// Dimension with dense PK 1..100; fact rows carry FKs into it.
	dimLen := 100
	rng := rand.New(rand.NewSource(60))
	n := 5000
	fk := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(dimLen)) + 1
	}
	sel := shuffledInts(n, 61)
	fkCol := decompose(t, fk, 32) // fully resident: join allowed
	selCol := decompose(t, sel, 8)

	cands := SelectApprox(nil, selCol, selCol.Relax(100, 3000))
	pos, err := FKPositionsApprox(nil, fkCol, cands, 1, dimLen)
	if err != nil {
		t.Fatalf("FKPositionsApprox: %v", err)
	}
	for i, id := range cands.IDs {
		if int64(pos[i]) != fk[id]-1 {
			t.Fatalf("position for candidate %d = %d, want %d", id, pos[i], fk[id]-1)
		}
	}
}

func TestFKPositionsApproxRejectsDecomposedKey(t *testing.T) {
	fk := shuffledInts(5000, 62)
	fkCol := decompose(t, fk, 6) // decomposed: approximate keys
	selCol := decompose(t, shuffledInts(5000, 63), 8)
	cands := SelectApprox(nil, selCol, selCol.Relax(0, 100))
	if _, err := FKPositionsApprox(nil, fkCol, cands, 0, 5000); err == nil {
		t.Error("decomposed key column accepted for device FK join")
	}
}

func TestFKPositionsApproxDanglingKey(t *testing.T) {
	fk := []int64{1, 2, 99}
	fkCol := decompose(t, fk, 32)
	cands := &Candidates{IDs: []bat.OID{0, 1, 2}}
	if _, err := FKPositionsApprox(nil, fkCol, cands, 1, 10); err == nil {
		t.Error("dangling FK not detected")
	}
}
