package bulk

import (
	"sort"

	"repro/internal/device"
	"repro/internal/par"
)

// TopK returns the indices of the k smallest items of [0,n) under the
// strict weak order less, sorted ascending — the ORDER BY ... LIMIT k
// kernel. Ties break on the original index, making the selection a total
// order: the result is the unique global top-k, identical for every
// worker count and morsel size.
//
// The kernel is a morsel-parallel heap selection: each morsel maintains a
// bounded max-heap of its local k best (O(n log k), no full
// materialization), the local winners concatenate in morsel order, and
// one final sort of the at-most (morsels × k) survivors picks the global
// answer. When k >= n it degenerates to a full index sort — the baseline
// BenchmarkTopK compares against.
//
// bytesPer is the physical footprint of one item, charged as a sequential
// read; the billed operation count is the deterministic n·ceil(log2(k+1))
// comparison bound, never the data-dependent heap work, so meters stay
// bit-identical across worker counts and morsel sizes.
func TopK(p par.P, m *device.Meter, n, k int, bytesPer int64, less func(i, j int) bool) []int {
	if k > n {
		k = n
	}
	if m != nil && n > 0 && k > 0 {
		logK := int64(1)
		for 1<<logK <= k {
			logK++
		}
		m.CPUWork(p.NThreads(), int64(n)*bytesPer+int64(k)*8, 0, int64(n)*logK)
	}
	if n <= 0 || k <= 0 {
		return nil
	}
	// The total order backing both the heaps and the final sort.
	before := func(i, j int) bool {
		if less(i, j) {
			return true
		}
		if less(j, i) {
			return false
		}
		return i < j
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		sort.Slice(out, func(a, b int) bool { return before(out[a], out[b]) })
		return out
	}
	locals := par.GatherOrdered(p, n, func(lo, hi int) []int {
		h := topkHeap{before: before, idx: make([]int, 0, k)}
		for i := lo; i < hi; i++ {
			h.offer(i, k)
		}
		return h.idx
	})
	sort.Slice(locals, func(a, b int) bool { return before(locals[a], locals[b]) })
	return locals[:k]
}

// topkHeap is a bounded max-heap of item indices under a total order: the
// root is the worst retained item, so a better offer replaces it in
// O(log k).
type topkHeap struct {
	before func(i, j int) bool
	idx    []int
}

// offer inserts i if the heap holds fewer than k items or i beats the
// current worst.
func (h *topkHeap) offer(i, k int) {
	if len(h.idx) < k {
		h.idx = append(h.idx, i)
		h.siftUp(len(h.idx) - 1)
		return
	}
	if h.before(i, h.idx[0]) {
		h.idx[0] = i
		h.siftDown(0)
	}
}

func (h *topkHeap) siftUp(at int) {
	for at > 0 {
		parent := (at - 1) / 2
		// Max-heap: the parent must not be better than the child.
		if h.before(h.idx[parent], h.idx[at]) {
			h.idx[parent], h.idx[at] = h.idx[at], h.idx[parent]
			at = parent
			continue
		}
		return
	}
}

func (h *topkHeap) siftDown(at int) {
	n := len(h.idx)
	for {
		worst := at
		for c := 2*at + 1; c <= 2*at+2 && c < n; c++ {
			if h.before(h.idx[worst], h.idx[c]) {
				worst = c
			}
		}
		if worst == at {
			return
		}
		h.idx[at], h.idx[worst] = h.idx[worst], h.idx[at]
		at = worst
	}
}
