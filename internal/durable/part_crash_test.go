package durable

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/shard"
)

// TestPropPartitionedCrashCuts extends the crash-recovery property test to
// partitioned tables: a hash-partitioned table runs wrapper DML while every
// partition merges concurrently, then the WAL is hard-cut at random byte
// offsets. Each cut must recover every partition to exactly its own
// checkpoint horizon plus the committed WAL suffix (computed by an oracle
// routing the same rows), re-create the wrapper spec from its create
// record, and answer queries byte-identically in classic and A&R mode. The
// name carries "Prop" so CI's focused -race job covers the concurrent
// merges.
func TestPropPartitionedCrashCuts(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { partCrashCuts(t, seed) })
	}
}

func partCrashCuts(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cat := plan.NewCatalog(device.PaperSystem())
	s := openStore(t, dir, cat, SyncAlways)
	spec := shard.Spec{Kind: shard.Hash, Col: "k", N: 3}
	if _, err := cat.CreatePartitionedTable("pt", kvDefs, spec); err != nil {
		t.Fatal(err)
	}

	// Phase 1: wrapper DML and fan-out merges, a decomposition of both
	// columns, then a checkpoint of every partition — each partition's
	// state persists in its own segment file at its own horizon.
	ctr := new(int64)
	var phase1 []crashOp
	for i := 0; i < 40; i++ {
		op := randOp(rng, "pt", ctr)
		op.apply(t, cat)
		phase1 = append(phase1, op)
		if rng.Intn(8) == 0 {
			if _, err := cat.MergeTable(nil, "pt", false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, col := range []string{"k", "v"} {
		if _, err := cat.Decompose("pt", col, 6); err != nil {
			t.Fatal(err)
		}
	}
	p, ok := cat.Partitioned("pt")
	if !ok {
		t.Fatal("pt is not partitioned")
	}
	for i := range p.Parts {
		if _, err := s.Checkpoint(nil, shard.PartName("pt", i), false); err != nil {
			t.Fatal(err)
		}
	}
	// After checkpointing every partition only the wrapper's create record
	// remains in the WAL (it carries no horizon and survives rewrites).
	if st := s.Stats(); st.WALRecords != 1 {
		t.Fatalf("WAL holds %d records after checkpointing every partition, want 1 (the wrapper create)", st.WALRecords)
	}

	// Phase 2: wrapper inserts/deletes while every partition merges
	// concurrently — the WAL tail interleaves per-partition records while
	// the merge path races the append+apply path. No checkpoints.
	phase2 := make([]crashOp, 0, 25)
	for i := 0; i < 25; i++ {
		phase2 = append(phase2, randOp(rng, "pt", ctr))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range phase2 {
			op.apply(t, cat)
		}
	}()
	for i := range p.Parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				if _, err := cat.MergeTable(nil, shard.PartName("pt", i), false); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Snapshot the on-disk state and decode the final WAL's frame layout.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		rec Record
		end int64
	}
	var frames []frame
	{
		probe := filepath.Join(t.TempDir(), "probe.log")
		if err := os.WriteFile(probe, walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		w, _, err := openWAL(probe, SyncOff, 0, nil, 0, func(rec Record, end int64) error {
			frames = append(frames, frame{rec, end})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	if len(frames) == 0 || frames[0].rec.Type != recCreatePart {
		t.Fatalf("WAL does not start with the wrapper create record (frames: %d)", len(frames))
	}

	// Hard-cut the WAL at the torn edges of a mid-tail frame plus random
	// offsets. Cuts never land before the create record's end: it was
	// fsynced long before the crash window, so a shorter prefix is
	// corruption, not a torn tail.
	floor := frames[0].end
	cuts := []int64{floor, int64(len(walBytes))}
	if len(frames) > 2 {
		mid := frames[1+len(frames)/2]
		cuts = append(cuts, mid.end-1, mid.end)
	}
	for i := 0; i < 6; i++ {
		cuts = append(cuts, floor+rng.Int63n(int64(len(walBytes))-floor+1))
	}
	for _, cut := range cuts {
		cutDir := t.TempDir()
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == filepath.Base(WALPath(dir)) {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(cutDir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// Oracle: the same wrapper routing phase 1 in full, then the
		// committed phase-2 records applied to their partitions directly.
		oracle := plan.NewCatalog(device.PaperSystem())
		if _, err := oracle.CreatePartitionedTable("pt", kvDefs, spec); err != nil {
			t.Fatal(err)
		}
		for _, op := range phase1 {
			op.apply(t, oracle)
		}
		committed := 0
		for _, f := range frames {
			if f.end > cut {
				break
			}
			committed++
			if f.rec.Type == recCreatePart {
				continue
			}
			op := crashOp{table: f.rec.Table, rows: f.rec.Rows}
			if f.rec.Type == recDelete {
				op.rows = nil
				for _, pr := range f.rec.Preds {
					op.preds = append(op.preds, plan.Filter{Col: pr.Col, Lo: pr.Lo, Hi: pr.Hi})
				}
			}
			op.apply(t, oracle)
		}

		recovered := plan.NewCatalog(device.PaperSystem())
		rs, err := Open(cutDir, recovered, Config{Policy: SyncAlways})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		if int(rs.Recovery().Replayed) != committed {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, rs.Recovery().Replayed, committed)
		}
		rp, ok := recovered.Partitioned("pt")
		if !ok {
			t.Fatalf("cut at %d: wrapper not recovered", cut)
		}
		if rp.Spec != spec {
			t.Fatalf("cut at %d: recovered spec %v, want %v", cut, rp.Spec, spec)
		}
		// Every partition recovered to its checkpoint horizon plus the
		// committed suffix, independently.
		for i := range rp.Parts {
			pn := shard.PartName("pt", i)
			want := tableRows(t, oracle, pn)
			got := tableRows(t, recovered, pn)
			if !sameRows(want, got) {
				t.Fatalf("cut at %d: %s recovered %d rows, oracle has %d (content mismatch)", cut, pn, len(got), len(want))
			}
		}
		// The recovered table answers scatter-gather queries identically in
		// both modes (decompositions survived in the segment files).
		q := plan.Query{
			Table:   "pt",
			Filters: []plan.Filter{{Col: "v", Lo: 0, Hi: plan.NoHi}},
			GroupBy: nil,
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "s", Func: plan.Sum, Expr: plan.Col("k")},
			},
		}
		ar, err := recovered.Exec(context.Background(), q, plan.ModeAR, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("cut at %d: AR: %v", cut, err)
		}
		cl, err := recovered.Exec(context.Background(), q, plan.ModeClassic, plan.ExecOpts{})
		if err != nil {
			t.Fatalf("cut at %d: classic: %v", cut, err)
		}
		if !plan.EqualResults(ar.Rows, cl.Rows) {
			t.Fatalf("cut at %d: A&R %v != classic %v", cut, ar.Rows, cl.Rows)
		}
		rs.Close()
	}
}
