package bitpack

import (
	"math/rand"
	"testing"
)

// The word-parallel paths (Pack's shift-carry accumulator, UnpackRange's
// streaming decode) must be bit-identical with the per-element Get/Set
// reference at every width 0..64 and every alignment, including ranges
// that start and end mid-word.

func randomVals(rng *rand.Rand, width uint, n int) []uint64 {
	vals := make([]uint64, n)
	m := Mask(width)
	for i := range vals {
		vals[i] = rng.Uint64() & m
	}
	return vals
}

func TestPackMatchesSetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(0); width <= 64; width++ {
		n := 1 + rng.Intn(300)
		vals := randomVals(rng, width, n)
		fast := Pack(width, vals)
		ref := New(width, n)
		for i, v := range vals {
			ref.Set(i, v)
		}
		for i := range vals {
			if fast.Get(i) != ref.Get(i) {
				t.Fatalf("width %d pos %d: Pack differs from Set loop", width, i)
			}
		}
	}
}

func TestUnpackRangeMatchesGetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := uint(0); width <= 64; width++ {
		n := 64 + rng.Intn(300)
		a := Pack(width, randomVals(rng, width, n))
		for trial := 0; trial < 8; trial++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			got := a.UnpackRange(nil, lo, hi)
			if len(got) != hi-lo {
				t.Fatalf("width %d [%d,%d): got %d values", width, lo, hi, len(got))
			}
			for j, v := range got {
				if want := a.Get(lo + j); v != want {
					t.Fatalf("width %d [%d,%d) pos %d: got %d want %d", width, lo, hi, j, v, want)
				}
			}
		}
	}
}

func TestUnpackRangeReusesDst(t *testing.T) {
	a := Pack(7, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	buf := make([]uint64, 0, 16)
	got := a.UnpackRange(buf, 2, 9)
	if &got[0] != &buf[:1][0] {
		t.Fatal("UnpackRange allocated despite sufficient dst capacity")
	}
	if n := testing.AllocsPerRun(100, func() { a.UnpackRange(buf, 0, 10) }); n != 0 {
		t.Fatalf("UnpackRange with capacious dst allocates %.1f/op", n)
	}
}

func BenchmarkUnpackRange(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 64 << 10
	a := Pack(9, randomVals(rng, 9, n))
	dst := make([]uint64, 0, n)
	b.SetBytes(n * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.UnpackRange(dst, 0, n)
	}
}
