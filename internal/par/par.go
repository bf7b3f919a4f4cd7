// Package par provides the data-parallel execution substrate that stands in
// for the paper's massively parallel OpenCL kernels.
//
// Kernels in the paper are parallelized "over the number of processed
// tuples" (§V-C). We model this with chunked worker pools: the input range
// is split into fixed-size chunks that workers process concurrently. Two
// gather disciplines are offered:
//
//   - ordered: chunk outputs are concatenated in chunk order, preserving the
//     input permutation (the CPU-side, order-preserving discipline);
//   - unordered: chunk outputs are concatenated in a deterministic but
//     non-monotonic chunk permutation, modelling the fact that "a massively
//     parallelized selection can only maintain the input order at additional
//     costs" (§IV-A item 3). Determinism keeps tests reproducible while the
//     output is demonstrably not input-ordered, which is exactly what forces
//     the translucent join's general path.
//
// The P descriptor carries a kernel's degree of parallelism through the
// executors (billed threads vs real workers vs morsel size vs context; see
// DESIGN.md §7), and the block primitives (Blocks, RunBlocks) support the
// partial-state aggregation pattern whose merge order is fixed by the
// input partition — never by goroutine scheduling — so results are
// byte-stable across worker counts.
package par

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/mem"
)

// DefaultChunk is the default number of tuples per parallel chunk. It is
// large enough to amortize scheduling and small enough to expose
// parallelism on the simulated device's lane count.
const DefaultChunk = 64 << 10

// Workers returns the effective worker count: w if positive, else
// GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn over [0,n) split into chunks of the given size (DefaultChunk
// if chunk <= 0) using the given number of workers. fn must be safe for
// concurrent invocation on disjoint ranges.
func For(n, chunk, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	nchunks := (n + chunk - 1) / chunk
	w := Workers(workers)
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				c := next
				next++
				mu.Unlock()
				if c >= nchunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForScratch is For with a per-worker morsel scratch: each worker takes
// one mem.Scratch for the duration of its claim loop and hands it to fn,
// reset, for every morsel it processes — so decode buffers and selection
// vectors are reused across morsels instead of allocated per morsel.
// Buffers carved from the scratch must not escape fn.
func ForScratch(n, chunk, workers int, fn func(s *mem.Scratch, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	nchunks := (n + chunk - 1) / chunk
	w := Workers(workers)
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		s := mem.GetScratch()
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			s.Reset()
			fn(s, lo, hi)
		}
		mem.PutScratch(s)
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			s := mem.GetScratch()
			defer mem.PutScratch(s)
			for {
				mu.Lock()
				c := next
				next++
				mu.Unlock()
				if c >= nchunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				s.Reset()
				fn(s, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// PermuteInto fills p with a deterministic permutation of [0,len(p)) that
// is not the identity for len(p) > 2, and returns it. It visits indices
// with a stride coprime to len(p), which scatters chunk completion order
// the way an unsynchronized device would; callers draw p from the arena.
func PermuteInto(p []int) []int {
	n := len(p)
	if n <= 0 {
		return p
	}
	stride := 1
	if n > 2 {
		// Pick a stride coprime to n, starting from a golden-ratio-ish
		// fraction so neighbouring chunks land far apart.
		stride = n*5/8 | 1
		for gcd(stride, n) != 1 {
			stride += 2
			if stride >= n {
				stride = 3
			}
		}
		if stride == 1 && n > 2 {
			stride = n - 1 // reversal as a last resort
		}
	}
	at := 0
	for i := 0; i < n; i++ {
		p[i] = at
		at = (at + stride) % n
	}
	return p
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// P describes the degree of parallelism of one CPU kernel invocation. It
// separates the two numbers that the rest of the system must never confuse:
//
//   - Threads is the *simulated* thread count charged to the device meter.
//     It determines the simulated figures and nothing else, so experiments
//     produce identical numbers no matter how a kernel actually executes.
//   - Workers is the *real* goroutine budget used for morsel-parallel
//     execution. The engine's scheduler allocates it from the shared CPU
//     pool per admitted query; it never appears in a meter charge.
//
// Ctx is polled at morsel granularity: a cancelled context stops workers
// from claiming further morsels, bounding cancellation latency by one
// morsel instead of one full operator pass. A kernel interrupted this way
// returns incomplete data — executors discard it at their next cooperative
// checkpoint (plan.Stage), so partial results are never served.
type P struct {
	Threads int             // billed thread count; <= 0 means 1
	Workers int             // real goroutines; <= 0 means Threads
	Chunk   int             // morsel rows; <= 0 means DefaultChunk
	Ctx     context.Context // polled per morsel; nil means never cancelled
}

// Bill returns a P that executes serially on the calling goroutine while
// charging the meter for the given simulated thread count: the P for
// callers that want one worker (loaders, examples, reference runs in
// tests), passed to the same kernels the engine runs.
func Bill(threads int) P { return P{Threads: threads, Workers: 1} }

// NThreads returns the billable thread count (at least 1).
func (p P) NThreads() int {
	if p.Threads > 0 {
		return p.Threads
	}
	return 1
}

// NWorkers returns the real worker count (defaults to NThreads).
func (p P) NWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return p.NThreads()
}

// ChunkSize returns the morsel size in rows.
func (p P) ChunkSize() int {
	if p.Chunk > 0 {
		return p.Chunk
	}
	return DefaultChunk
}

// cancelled reports whether the kernel's context is done.
func (p P) cancelled() bool {
	if p.Ctx == nil {
		return false
	}
	select {
	case <-p.Ctx.Done():
		return true
	default:
		return false
	}
}

// Cancelled returns the context error once the P's context is done, nil
// otherwise. Kernels that run their own serial morsel loop (avoiding a
// closure on the single-worker path) check it at morsel boundaries,
// mirroring For's per-claim check.
func (p P) Cancelled() error {
	if p.cancelled() {
		return p.Ctx.Err()
	}
	return nil
}

// For runs fn over [0,n) split into morsels that workers claim dynamically.
// fn must be safe for concurrent invocation on disjoint ranges. The context
// is checked before every morsel claim; on cancellation the remaining
// morsels are skipped and For returns the context error (the caller must
// discard whatever fn produced so far).
func (p P) For(n int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	chunk := p.ChunkSize()
	nchunks := (n + chunk - 1) / chunk
	w := p.NWorkers()
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += chunk {
			if p.cancelled() {
				return p.Ctx.Err()
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return nil
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				if p.cancelled() {
					return
				}
				mu.Lock()
				c := next
				next++
				mu.Unlock()
				if c >= nchunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	if p.cancelled() {
		return p.Ctx.Err()
	}
	return nil
}

// ForScratch is P.For with a per-worker morsel scratch, the CPU-side twin
// of the package-level ForScratch: each worker reuses one mem.Scratch
// (reset per morsel) across every morsel it claims. Buffers carved from
// the scratch must not escape fn.
func (p P) ForScratch(n int, fn func(s *mem.Scratch, lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	chunk := p.ChunkSize()
	nchunks := (n + chunk - 1) / chunk
	w := p.NWorkers()
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		s := mem.GetScratch()
		defer mem.PutScratch(s)
		for lo := 0; lo < n; lo += chunk {
			if p.cancelled() {
				return p.Ctx.Err()
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			s.Reset()
			fn(s, lo, hi)
		}
		return nil
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			s := mem.GetScratch()
			defer mem.PutScratch(s)
			for {
				if p.cancelled() {
					return
				}
				mu.Lock()
				c := next
				next++
				mu.Unlock()
				if c >= nchunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				s.Reset()
				fn(s, lo, hi)
			}
		}()
	}
	wg.Wait()
	if p.cancelled() {
		return p.Ctx.Err()
	}
	return nil
}

// ForCounted runs fn over [0,n) in morsels, recording how many outputs
// each morsel produced. fn writes its survivors into the caller's
// overallocated output buffers at the morsel's own offset (positions
// [lo, lo+count)) — regions are disjoint, so no synchronization — and
// returns the count. Compact then left-packs the regions in morsel order.
// counts is drawn from the arena; the caller releases it with
// mem.Ints.Put. On cancellation counts is released and nil is returned
// with the context error.
func ForCounted(p P, n int, fn func(s *mem.Scratch, ci, lo, hi int) int) (counts []int, total int, err error) {
	chunk := p.ChunkSize()
	nchunks := (n + chunk - 1) / chunk
	counts = mem.Ints.GetN(nchunks)
	clear(counts)
	err = p.ForScratch(n, func(s *mem.Scratch, lo, hi int) {
		ci := lo / chunk
		counts[ci] = fn(s, ci, lo, hi)
	})
	if err != nil {
		mem.Ints.Put(counts)
		return nil, 0, err
	}
	for _, c := range counts {
		total += c
	}
	return counts, total, nil
}

// Compact left-packs the per-morsel regions a ForCounted pass produced:
// morsel ci's count survivors sit at [ci*chunk, ci*chunk+counts[ci]) of
// buf and are moved to the running offset. Because the target offset never
// exceeds the source offset, the move is in-place and allocation-free.
// Returns buf truncated to the packed length.
func Compact[T any](counts []int, chunk int, buf []T) []T {
	off := 0
	for ci, cnt := range counts {
		lo := ci * chunk
		if off != lo {
			copy(buf[off:off+cnt], buf[lo:lo+cnt])
		}
		off += cnt
	}
	return buf[:off]
}

// ForEach runs fn once per index in [0,n), with indices claimed
// dynamically by NWorkers goroutines and the context polled between
// claims. It is the item-granular For used to distribute pre-computed
// morsel lists (e.g. store segment morsels) over workers.
func ForEach(p P, n int, fn func(i int)) error {
	item := p
	item.Chunk = 1
	return item.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// GatherOrdered runs fn over [0,n) in morsels and concatenates the
// per-morsel results in morsel order, preserving the input permutation —
// the order-preserving CPU discipline (§IV-A item 2). The output is
// identical for every worker count.
func GatherOrdered[T any](p P, n int, fn func(lo, hi int) []T) []T {
	if n <= 0 {
		return nil
	}
	chunk := p.ChunkSize()
	nchunks := (n + chunk - 1) / chunk
	parts := make([][]T, nchunks)
	p.For(n, func(lo, hi int) {
		parts[lo/chunk] = fn(lo, hi)
	})
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]T, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// Block is one contiguous sub-range of an input, processed by a single
// worker so that per-worker partial states (groupings, aggregates) can be
// merged deterministically in block order.
type Block struct{ Lo, Hi int }

// Blocks statically partitions [0,n) into at most NWorkers contiguous
// blocks of near-equal size. The partition depends only on n and the worker
// count, and merging per-block partial states left to right reproduces the
// exact serial result: a key's global first appearance is its first block's
// first appearance.
func (p P) Blocks(n int) []Block {
	nb := p.NBlocks(n)
	if nb == 0 {
		return nil
	}
	out := make([]Block, nb)
	for b := range out {
		out[b].Lo, out[b].Hi = p.BlockRange(n, b)
	}
	return out
}

// NBlocks returns how many blocks Blocks(n) partitions [0,n) into,
// without materializing them — the allocation-free form aggregate kernels
// size their flat partial-state buffers with.
func (p P) NBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	w := p.NWorkers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	size := (n + w - 1) / w
	return (n + size - 1) / size
}

// BlockRange returns the bounds of block b of the Blocks(n) partition.
func (p P) BlockRange(n, b int) (lo, hi int) {
	w := p.NWorkers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	size := (n + w - 1) / w
	lo = b * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// RunBlocks executes fn(b, lo, hi) for morsel-sized sub-ranges of every
// block returned by Blocks(n): calls for the same block index b run
// sequentially in ascending range order on one goroutine (so per-block
// state needs no locking), distinct blocks run concurrently, and the
// context is polled between morsels. Returns the context error if the run
// was interrupted (partial block states must then be discarded).
func RunBlocks(p P, n int, fn func(b, lo, hi int)) error {
	nb := p.NBlocks(n)
	if nb == 0 {
		return nil
	}
	chunk := p.ChunkSize()
	if nb == 1 || p.NWorkers() <= 1 {
		for b := 0; b < nb; b++ {
			blo, bhi := p.BlockRange(n, b)
			for lo := blo; lo < bhi; lo += chunk {
				if p.cancelled() {
					return p.Ctx.Err()
				}
				hi := lo + chunk
				if hi > bhi {
					hi = bhi
				}
				fn(b, lo, hi)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(nb)
	for b := 0; b < nb; b++ {
		go func(b int) {
			defer wg.Done()
			blo, bhi := p.BlockRange(n, b)
			for lo := blo; lo < bhi; lo += chunk {
				if p.cancelled() {
					return
				}
				hi := lo + chunk
				if hi > bhi {
					hi = bhi
				}
				fn(b, lo, hi)
			}
		}(b)
	}
	wg.Wait()
	if p.cancelled() {
		return p.Ctx.Err()
	}
	return nil
}
