package plan

import (
	"context"
	"fmt"

	"repro/internal/device"
	"repro/internal/shard"
)

// Mode is the caller's executor preference for one query.
type Mode int

// Modes. Auto lets the cost model pick the executor per query from the
// statistics of the snapshot the query runs on; ar and classic are forced
// overrides for operators and tests that need a specific executor.
const (
	ModeAuto    Mode = iota // cost-based per-query choice from statistics
	ModeAR                  // force the A&R executor (errors if not decomposed)
	ModeClassic             // force the classic executor
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeAR:
		return "ar"
	case ModeClassic:
		return "classic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Prepared is one query made ready to run: its tables validated and
// pinned once (once per surviving partition leg for a partitioned table),
// the executor chosen on those snapshots, and the pipeline — or the
// scatter legs — assembled. Run executes exactly what Describe renders,
// against exactly the snapshots that chose the mode, however the tables
// change in between.
type Prepared struct {
	// Mode is the preference the query was prepared under.
	Mode Mode
	// Choice is the cost model's decision in auto mode (zero otherwise).
	Choice ModeChoice

	cat     *Catalog
	q       Query
	classic bool // the query's strategy: classic CPU pool vs A&R stream

	pl *pipeline // unpartitioned tables

	part  *shard.Partitioned // partitioned tables: the surviving legs
	parts []int
	legs  []*pipeline
}

// Prepare validates q, pins its snapshots, resolves the executor under
// mode and assembles what Run will execute. A query whose columns lack
// decompositions is classic by necessity in auto mode and an error under
// a forced ModeAR.
func (c *Catalog) Prepare(q Query, mode Mode) (*Prepared, error) {
	p := &Prepared{Mode: mode, cat: c, q: q}
	if part, ok := c.Partitioned(q.Table); ok {
		if err := p.prepareScatter(part); err != nil {
			return nil, err
		}
		return p, nil
	}
	snap, arErr, err := q.resolve(c)
	if err != nil {
		return nil, err
	}
	if mode == ModeAR && arErr != nil {
		return nil, arErr
	}
	p.classic, p.Choice = pickMode(c.sys, &q, snap, arErr, mode)
	p.pl = buildPipeline(q, snap, p.classic)
	return p, nil
}

// pickMode resolves one snapshot's scan strategy under mode; arErr is the
// reason resolve found the snapshot unable to run A&R, if any.
func pickMode(sys *device.System, q *Query, snap *execSnap, arErr error, mode Mode) (bool, ModeChoice) {
	switch {
	case mode == ModeClassic:
		return true, ModeChoice{}
	case arErr != nil:
		return true, ModeChoice{Classic: true, EstCandidates: -1, Reason: "a&r unavailable: " + arErr.Error()}
	case mode == ModeAR:
		return false, ModeChoice{}
	}
	ch := chooseSnap(sys, q, snap)
	return ch.Classic, ch
}

// prepareScatter builds one leg per partition that survives pruning, each
// scanning classic or A&R by its own snapshot. In auto mode the query
// takes the A&R stream only if a surviving leg runs A&R; a forced ModeAR
// fails only when no partition of the whole table can run A&R, so pruning
// never turns a runnable query into an error.
func (p *Prepared) prepareScatter(part *shard.Partitioned) error {
	c := p.cat
	p.part = part
	p.parts = prunePartitions(p.q, part.Spec)
	if len(p.parts) == 0 {
		// One leg always survives so an all-pruned query keeps the
		// executor shape and returns the empty result.
		p.parts = []int{0}
	}
	var firstARErr error
	nAR := 0
	var est int64
	for _, i := range p.parts {
		qi := p.q
		qi.Table = shard.PartName(part.Name, i)
		snap, arErr, err := qi.resolve(c)
		if err != nil {
			return err
		}
		if arErr != nil && firstARErr == nil {
			firstARErr = arErr
		}
		classic, ch := pickMode(c.sys, &qi, snap, arErr, p.Mode)
		if !classic {
			nAR++
			est += ch.EstCandidates
		}
		p.legs = append(p.legs, buildLeg(qi, snap, classic))
	}
	switch p.Mode {
	case ModeClassic:
		p.classic = true
	case ModeAR:
		if nAR == 0 && !c.anyPartAR(p.q, part) {
			return firstARErr
		}
	default:
		p.classic = nAR == 0
		if p.classic {
			p.Choice = ModeChoice{Classic: true, EstCandidates: -1, Reason: "no partition leg favors a&r"}
		} else {
			p.Choice = ModeChoice{EstCandidates: est, Reason: fmt.Sprintf("%d of %d partition legs favor a&r", nAR, len(p.parts))}
		}
	}
	return nil
}

// Classic reports whether the query runs on the classic CPU pool rather
// than the A&R device stream (a scatter routes A&R when any leg does, or
// when the caller forced ModeAR).
func (p *Prepared) Classic() bool { return p.classic }

// AsClassic reassembles the query with the classic scan strategy on the
// snapshots p already pinned — every snapshot that validates for A&R is a
// valid classic one. The scheduler uses it to spill an auto-mode query
// off an overloaded device stream.
func (p *Prepared) AsClassic() *Prepared {
	cp := *p
	cp.classic = true
	if p.pl != nil {
		cp.pl = buildPipeline(p.q, p.pl.snap, true)
	}
	cp.legs = make([]*pipeline, len(p.legs))
	for i, pl := range p.legs {
		cp.legs[i] = buildLeg(pl.q, pl.snap, true)
	}
	return &cp
}

// buildLeg assembles one scatter leg. The gather tail groups on the host,
// where every partition's base and delta tuples meet, so partition scans
// never pre-group on the device.
func buildLeg(q Query, snap *execSnap, classic bool) *pipeline {
	pl := buildPipeline(q, snap, classic)
	pl.noDevGroup = true
	return pl
}

// Run executes the prepared query under ctx. Cancellation is cooperative:
// the pipeline polls ctx between stages (and kernels poll it per morsel)
// and returns ctx.Err() without a result once the context is done.
func (p *Prepared) Run(ctx context.Context, opts ExecOpts) (*Result, error) {
	if p.part != nil {
		return p.runScatter(ctx, opts)
	}
	return p.pl.run(ctx, p.cat.sys, opts)
}

// Describe renders what Run executes without executing it: the mode
// choice in auto mode, then the pipeline or the scatter legs.
func (p *Prepared) Describe() []string {
	var out []string
	if p.Mode == ModeAuto {
		out = append(out, "mode choice: "+p.Choice.String()+" — auto; \\mode ar|classic forces an executor")
	}
	if p.part != nil {
		return append(out, p.describeScatter()...)
	}
	return append(out, p.pl.describe()...)
}

// Exec prepares and runs q in one call, for callers without a scheduler.
func (c *Catalog) Exec(ctx context.Context, q Query, mode Mode, opts ExecOpts) (*Result, error) {
	p, err := c.Prepare(q, mode)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, opts)
}
