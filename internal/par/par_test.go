package par

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000, DefaultChunk + 3} {
		seen := make([]int32, n)
		For(n, 16, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForSingleWorkerSequential(t *testing.T) {
	var order []int
	For(10, 3, 1, func(lo, hi int) {
		order = append(order, lo)
	})
	want := []int{0, 3, 6, 9}
	if len(order) != len(want) {
		t.Fatalf("chunk starts = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("chunk starts = %v, want %v", order, want)
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, 4, 4, func(lo, hi int) { called = true })
	For(-5, 4, 4, func(lo, hi int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestGatherOrderedPreservesOrder(t *testing.T) {
	n := 1000
	got := GatherOrdered(P{Workers: 8, Chunk: 64}, n, func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	})
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("ordered gather permuted output at %d: got %d", i, v)
		}
	}
}

func TestPermuteIsPermutation(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%2000) + 1
		p := PermuteInto(make([]int, n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermuteNotIdentityForLargeN(t *testing.T) {
	for _, n := range []int{3, 4, 10, 100, 1024} {
		p := PermuteInto(make([]int, n))
		identity := true
		for i, v := range p {
			if v != i {
				identity = false
				break
			}
		}
		if identity {
			t.Errorf("PermuteInto(%d) is the identity", n)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Errorf("Workers(4) = %d", Workers(4))
	}
	if Workers(0) < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", Workers(0))
	}
	if Workers(-1) < 1 {
		t.Errorf("Workers(-1) = %d, want >= 1", Workers(-1))
	}
}

func TestParallelPBlocksPartitionExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000, 4097} {
		for _, w := range []int{1, 2, 3, 8, 50} {
			p := P{Workers: w}
			blocks := p.Blocks(n)
			if n == 0 {
				if len(blocks) != 0 {
					t.Fatalf("Blocks(0) = %v", blocks)
				}
				continue
			}
			if len(blocks) > w {
				t.Fatalf("n=%d w=%d: %d blocks exceed worker count", n, w, len(blocks))
			}
			at := 0
			for _, b := range blocks {
				if b.Lo != at || b.Hi <= b.Lo {
					t.Fatalf("n=%d w=%d: bad block %+v at %d", n, w, b, at)
				}
				at = b.Hi
			}
			if at != n {
				t.Fatalf("n=%d w=%d: blocks cover %d rows", n, w, at)
			}
		}
	}
}

func TestParallelForCancelsAtMorselGranularity(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	p := P{Workers: 2, Chunk: 10, Ctx: ctx}
	err := p.For(1000, func(lo, hi int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("cancelled For returned nil error")
	}
	if got := ran.Load(); got >= 100 {
		t.Fatalf("ran %d morsels after cancellation; latency not morsel-bounded", got)
	}
}

func TestParallelGatherOrderedStableAcrossWorkers(t *testing.T) {
	n := 10_000
	run := func(workers, chunk int) []int {
		return GatherOrdered(P{Workers: workers, Chunk: chunk}, n, func(lo, hi int) []int {
			out := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					out = append(out, i)
				}
			}
			return out
		})
	}
	want := run(1, 64)
	for _, workers := range []int{2, 4, 9} {
		for _, chunk := range []int{1, 63, 1024} {
			got := run(workers, chunk)
			if len(got) != len(want) {
				t.Fatalf("w=%d c=%d: len %d != %d", workers, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d c=%d: [%d] = %d, want %d", workers, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParallelForEachVisitsOnce(t *testing.T) {
	n := 500
	seen := make([]int32, n)
	if err := ForEach(P{Workers: 4}, n, func(i int) { atomic.AddInt32(&seen[i], 1) }); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParallelRunBlocksSequentialWithinBlock(t *testing.T) {
	n := 1000
	p := P{Workers: 4, Chunk: 16}
	blocks := p.Blocks(n)
	last := make([]int, len(blocks))
	for i := range last {
		last[i] = -1
	}
	if err := RunBlocks(p, n, func(b, lo, hi int) {
		if lo <= last[b] {
			t.Errorf("block %d ranges out of order: %d after %d", b, lo, last[b])
		}
		last[b] = lo
	}); err != nil {
		t.Fatal(err)
	}
	for b, blk := range blocks {
		if last[b] < 0 || last[b] >= blk.Hi {
			t.Fatalf("block %d never finished (last lo %d)", b, last[b])
		}
	}
}
