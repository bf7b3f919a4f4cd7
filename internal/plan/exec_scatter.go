// Scatter-gather execution over partitioned fact tables. A partitioned
// table (internal/shard) is N independent store.Tables behind one name;
// execution scatters one scan per partition — classic or A&R chosen per
// partition — runs them concurrently (each A&R scan admission-controlled
// onto its partition's simulated device stream by the engine's DeviceGate),
// and gathers the per-partition exact tuple sets into the one shared
// pipeline tail (delta merge, grouping, aggregation, HAVING, top-k).
//
// Determinism contract: the gather merges everything — column values,
// meters, phase-A bounds, candidate counts — in partition-index order, and
// each partition's scan is internally deterministic for any worker count.
// Result rows are therefore byte-identical to the unpartitioned execution
// of the same data at every partition count, and the simulated figures are
// bit-identical across worker-count and morsel-size sweeps at any fixed
// partition count.
package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// DeviceGate admission-controls the per-partition device streams. The
// engine's scheduler implements it as a per-device ledger — one slot per
// simulated device — generalizing Fig 11's contention model: concurrent
// queries over the same partition serialize on its stream while scans of
// distinct partitions overlap freely.
type DeviceGate interface {
	// AcquireStream blocks until the partition's device stream is free (or
	// ctx is done) and returns the release function.
	AcquireStream(ctx context.Context, device int) (release func(), err error)
}

// partScan is one partition's scatter leg: its assembled pipeline, private
// execution state (own meter, own worker share), and scan output.
type partScan struct {
	pl   *pipeline
	st   pipeState
	out  *scanOut
	wall time.Duration
	err  error
}

// prunePartitions returns the partition indices a scatter must scan: for a
// range-partitioned table whose conjunctive filters constrain the
// partitioning column, every partition whose value slab is disjoint from
// the filter interval is skipped before any leg is built. Pruning is exact
// — a row routed to a pruned partition has its partitioning value inside
// that slab, so it fails the filter and contributes nothing — which keeps
// the gathered result rows byte-identical to the unpruned scatter (the
// phase-A bounds can only tighten: pruned legs' approximate candidates
// disappear). Hash partitions and disjunction groups never prune.
func prunePartitions(q Query, spec shard.Spec) []int {
	all := make([]int, spec.N)
	for i := range all {
		all[i] = i
	}
	if spec.Kind != shard.Range || spec.N <= 1 {
		return all
	}
	flo, fhi := int64(NoLo), int64(NoHi)
	found := false
	for _, f := range q.Filters {
		if f.Col != spec.Col {
			continue
		}
		found = true
		if f.Lo > flo {
			flo = f.Lo
		}
		if f.Hi < fhi {
			fhi = f.Hi
		}
	}
	if !found {
		return all
	}
	keep := make([]int, 0, spec.N)
	for i := 0; i < spec.N; i++ {
		lo, hi, ok := spec.Slab(i)
		if !ok || (fhi >= lo && flo <= hi) {
			keep = append(keep, i)
		}
	}
	return keep
}

// anyPartAR reports whether any partition of the table validates for A&R
// execution of the query.
func (c *Catalog) anyPartAR(q Query, p *shard.Partitioned) bool {
	for i := 0; i < p.Spec.N; i++ {
		qi := q
		qi.Table = shard.PartName(p.Name, i)
		if _, arErr, err := qi.resolve(c); err == nil && arErr == nil {
			return true
		}
	}
	return false
}

// runScatter executes a prepared scatter: one scan per surviving leg, run
// concurrently, then the partials gathered into the shared tail once.
func (p *Prepared) runScatter(ctx context.Context, opts ExecOpts) (*Result, error) {
	c, q, n, parts := p.cat, p.q, p.part.Spec.N, p.parts
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if pruned := n - len(parts); pruned > 0 {
		c.prunedParts.Add(int64(pruned))
	}

	// Each partition scan gets an equal share of the real worker pool; the
	// simulated Threads stay untouched, so the meter is independent of how
	// the pool is split.
	partOpts := opts
	partOpts.Workers = max(1, opts.workers()/len(parts))
	partOpts.Trace = false
	partOpts.Gate = nil

	scans := make([]*partScan, len(parts))
	for li, pl := range p.legs {
		scans[li] = &partScan{pl: pl, st: newPipeState(scanCtx, c.sys, partOpts, pl.classic)}
		scans[li].st.estReset(pl)
	}

	var wg sync.WaitGroup
	for li := range scans {
		wg.Add(1)
		go func(dev int, ps *partScan) {
			defer wg.Done()
			start := time.Now()
			defer func() { ps.wall = time.Since(start) }()
			if opts.Gate != nil && !ps.pl.classic {
				release, err := opts.Gate.AcquireStream(scanCtx, dev)
				if err != nil {
					ps.err = err
					cancel()
					return
				}
				defer release()
			}
			out, err := ps.pl.scan(&ps.st)
			if err == nil {
				// A cancellation mid-kernel leaves the scan incomplete;
				// never gather a partial partition.
				err = scanCtx.Err()
			}
			if err != nil {
				ps.err = err
				cancel()
				return
			}
			ps.out = out
		}(parts[li], scans[li])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Prefer the partition's own failure over the cancellations it caused.
	var scanErr error
	for _, ps := range scans {
		if ps.err != nil && !errors.Is(ps.err, context.Canceled) {
			scanErr = ps.err
			break
		}
	}
	if scanErr == nil {
		for _, ps := range scans {
			if ps.err != nil {
				scanErr = ps.err
				break
			}
		}
	}
	if scanErr != nil {
		return nil, scanErr
	}

	// ---- Gather: merge the partials in partition-index order.
	st := newPipeState(ctx, c.sys, opts, p.classic)
	for li, pl := range p.legs {
		st.res.InputBytes += pl.snap.inputBytes(pl.q, li == 0)
	}
	st.res.Plan = append(st.res.Plan, fmt.Sprintf("scatter: %s over %d partitions (%s)", q.Table, n, p.part.Spec))
	if pruned := n - len(parts); pruned > 0 {
		st.res.Plan = append(st.res.Plan, fmt.Sprintf("  pruned: %d of %d partitions (filters on %s exclude their slabs)", pruned, n, p.part.Spec.Col))
	}

	// The phase-A partials merge in partition order and finalize once; an
	// all-classic scatter reports no phase-A answer, so it folds nothing.
	var approx partialAnswer
	if !p.classic {
		approx = newPartial(q.Aggs)
	}
	estKnown := true
	var estSum int64
	for li, ps := range scans {
		out := ps.out
		out.ectx.appendDelta(out.dset)
		dn := 0
		if out.dset != nil {
			dn = out.dset.n
		}
		st.m.Add(ps.st.m)
		st.res.Candidates += ps.st.res.Candidates + dn
		st.res.Refined += ps.st.res.Refined + dn
		if ps.st.estCand < 0 {
			estKnown = false
		} else {
			estSum += ps.st.estCand
		}
		mode := modeName(ps.pl.classic)
		if !p.classic && ps.pl.classic {
			// A classic leg's rows are exact and qualify, so a mixed-mode
			// scatter still reports strict phase-A bounds.
			approx.foldExact(q.Aggs, out.ectx)
		} else if !p.classic {
			approx.merge(&out.approx)
		}
		st.res.Plan = append(st.res.Plan, fmt.Sprintf("  partition %d: mode=%s, %d candidates, %d refined", parts[li], mode, ps.st.res.Candidates+dn, ps.st.res.Refined+dn))
		for _, line := range ps.st.res.Plan {
			st.res.Plan = append(st.res.Plan, "    "+line)
		}
		if st.tr != nil {
			pm := ps.st.m
			st.tr.Add(obs.StageEvent{
				Stage: string(StageScatter),
				Op:    fmt.Sprintf("scatter(%s, mode=%s)", ps.pl.q.Table, mode),
				Rows:  int64(out.ectx.n),
				Est:   ps.st.estCand,
				Wall:  ps.wall,
				GPU:   pm.GPU,
				CPU:   pm.CPU,
				PCI:   pm.PCI,
			})
		}
	}
	if estKnown {
		st.estCand = estSum
	}
	if !p.classic {
		st.res.Approx = approx.finalize()
	}

	// Concatenate the exact values per referenced column, partition order.
	refs := sortedRefs(neededCols(q, len(q.GroupBy) > 0))
	merged := &exprCtx{vals: map[ColRef][]int64{}}
	for _, ps := range scans {
		merged.n += ps.out.ectx.n
	}
	for _, ref := range refs {
		vals := make([]int64, 0, merged.n)
		for _, ps := range scans {
			vals = append(vals, ps.out.ectx.vals[ref]...)
		}
		merged.vals[ref] = vals
	}

	// Baseline the tail's trace deltas after the merged charges.
	st.last = *st.m
	st.mark = time.Now()
	if err := st.step(StageGather); err != nil {
		return nil, err
	}
	st.traceRows(merged.n, "gather(%s, %d partitions)", q.Table, len(scans))

	tail := &pipeline{q: q, snap: p.legs[0].snap, classic: p.classic, noDevGroup: true}
	if err := tail.finish(&st, &scanOut{ectx: merged}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.closeTrace()
	return st.res, nil
}

// describeScatter renders a prepared scatter without executing it: the
// fan-out with each surviving leg's scan mode and estimated output rows
// (live rows times the product of the estimated filter selectivities, when
// every touched filter has an estimate), the gather stage, and the first
// surviving leg's pipeline as the representative per-partition plan.
// Pruned partitions are listed, not described.
func (p *Prepared) describeScatter() []string {
	spec := p.part.Spec
	out := []string{fmt.Sprintf("scatter: %s over %d partitions (%s)", p.q.Table, spec.N, spec)}
	li := 0
	for i := 0; i < spec.N; i++ {
		if li == len(p.parts) || p.parts[li] != i {
			out = append(out, fmt.Sprintf("  partition %d: %s, pruned (filters on %s exclude its slab)", i, shard.PartName(p.part.Name, i), spec.Col))
			continue
		}
		pl := p.legs[li]
		li++
		live := pl.snap.fact.LiveBase() + pl.snap.fact.LiveDelta()
		est := float64(live)
		known := true
		fold := func(sel float64) {
			if sel < 0 {
				known = false
				return
			}
			est *= sel
		}
		for _, rf := range pl.factFilters {
			fold(rf.estSel())
		}
		for _, g := range pl.orGroups {
			fold(g.sel)
		}
		for _, j := range pl.joins {
			fold(j.sel)
			for _, rf := range j.dimFilters {
				fold(rf.estSel())
			}
		}
		line := fmt.Sprintf("  partition %d: mode=%s, %s, %d live rows", i, modeName(pl.classic), pl.q.Table, live)
		if known {
			line += fmt.Sprintf(", est ~%d rows out", int64(est+0.5))
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("  gather: concatenate partials in partition order, shared tail (group/aggregate/having/order) over %s", p.q.Table))
	out = append(out, fmt.Sprintf("per-partition plan (partition %d shown):", p.parts[0]))
	for _, line := range p.legs[0].describe() {
		out = append(out, "  "+line)
	}
	return out
}
