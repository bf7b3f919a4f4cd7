package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/server"
)

// rowBytes is the logical size of one trips row: four 8-byte columns.
const rowBytes = 32

// sampler polls the store and the durability layer while the measured
// window runs: live delta depth, and the bytes the WAL and checkpoints
// write.
type sampler struct {
	eng            *engine.Engine
	deltaSum       float64
	deltaN         int
	walWritten     int64 // WAL growth, plus each rewritten tail
	segWritten     int64 // segment bytes of each checkpoint
	store0, store1 plan.StoreStats
	dur0, last     durable.Stats // at the start and at the latest sample
}

func newSampler(eng *engine.Engine) *sampler {
	s := &sampler{eng: eng, store0: eng.Catalog().StoreStats()}
	if d := eng.Durability(); d != nil {
		s.dur0 = d.Stats()
		s.last = s.dur0
	}
	return s
}

func (s *sampler) run(ctx context.Context) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			s.sample()
			s.store1 = s.eng.Catalog().StoreStats()
			return
		case <-tick.C:
			s.sample()
		}
	}
}

func (s *sampler) sample() {
	cat := s.eng.Catalog()
	live := 0
	for _, name := range cat.TableNames() {
		if t, err := cat.Table(name); err == nil {
			live += t.DeltaLive()
		}
	}
	s.deltaSum += float64(live)
	s.deltaN++
	d := s.eng.Durability()
	if d == nil {
		return
	}
	st := d.Stats()
	if st.WALBytes >= s.last.WALBytes {
		s.walWritten += st.WALBytes - s.last.WALBytes
	} else {
		s.walWritten += st.WALBytes // a checkpoint rewrote the kept tail
	}
	if st.Checkpoints > s.last.Checkpoints {
		s.segWritten += (st.Checkpoints - s.last.Checkpoints) * st.SegmentBytes
	}
	s.last = st
}

// checkIngest bounds every read of the window by the batches acknowledged
// before it was sent and those sent before its reply, then merges the
// delta and checks a final set of counts exactly.
func (r *runner) checkIngest() error {
	if r.wr.backlogged() {
		return fmt.Errorf("invalid run: the writer's backlog kept growing (median lag of the last quarter %v)",
			quantile(r.wr.lag[len(r.wr.lag)*3/4:], 0.5))
	}
	var written []fix
	for _, b := range r.s.writes {
		written = append(written, b.rows...)
	}
	for _, w := range r.workers {
		for _, b := range w.bounds {
			base := r.s.base.count(b.st.box) + countRows(r.s.extra, b.st.box)
			lo := base + countRows(written[:b.ackedBefore*insertRows], b.st.box)
			hi := base + countRows(written[:b.sentAfter*insertRows], b.st.box)
			if b.got < lo || b.got > hi {
				return fmt.Errorf("oracle mismatch on %q: got %d, want between %d and %d", b.st.line, b.got, lo, hi)
			}
		}
	}
	cl, err := server.Dial(r.sys.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.Query(`\merge trips`); err != nil {
		return fmt.Errorf(`\merge: %w`, err)
	}
	for i := range r.s.final {
		st := &r.s.final[i]
		reply, err := cl.Query(st.line)
		if err != nil {
			return fmt.Errorf("final pass: %w", err)
		}
		if err := st.check(reply); err != nil {
			return fmt.Errorf("oracle mismatch in final pass on %q: %v", st.line, err)
		}
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// perLayer fills the per-layer metrics: engine counters from the untraced
// half u, call times from the traced half's spans, device time from the
// serial pass, store and durability figures from the sampler.
func (r *runner) perLayer(m map[string]metric, u, tp *phase, tracers []*tracer, probes []time.Duration, serial *serialStats) error {
	var serverSelf, engineSelf, compile []time.Duration
	stages := map[string]time.Duration{}
	var other time.Duration
	var candidates, refined int64
	var estErr []float64
	for _, t := range tracers {
		serverSelf = append(serverSelf, t.serverSelf...)
		engineSelf = append(engineSelf, t.engineSelf...)
		compile = append(compile, t.compile...)
		for k, v := range t.stages {
			stages[k] += v
		}
		other += t.other
		candidates += t.candidates
		refined += t.refined
		estErr = append(estErr, t.estErr...)
	}
	traced := float64(max(1, len(serverSelf)))
	m["server.self_ms"] = metric{ms(quantile(serverSelf, 0.5)), "ms"}
	m["server.connect_ms"] = metric{ms(quantile(probes, 0.5)), "ms"}
	m["engine.self_ms"] = metric{ms(quantile(engineSelf, 0.5)), "ms"}
	m["engine.queue_wait_p50_ms"] = metric{1e3 * histQuantile(u.reg0, u.reg1, "ar_sched_queue_wait_seconds", 0.5), "ms"}
	m["engine.queue_wait_p99_ms"] = metric{1e3 * histQuantile(u.reg0, u.reg1, "ar_sched_queue_wait_seconds", 0.99), "ms"}
	hits, misses := delta(u, "ar_plan_cache_hits_total"), delta(u, "ar_plan_cache_misses_total")
	m["engine.plan_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	ar, classic := delta(u, `ar_mode_picks_total{mode="ar"}`), delta(u, `ar_mode_picks_total{mode="classic"}`)
	m["engine.ar_pick_ratio"] = metric{ratio(ar, ar+classic), "ratio"}
	m["engine.rejected"] = metric{delta(u, "ar_sched_rejected_total"), "count"}
	m["sql.compile_us"] = metric{float64(quantile(compile, 0.5)) / 1e3, "us"}
	for _, stage := range []string{"approximate", "refine", "aggregate", "bulk", "delta", "ship"} {
		m["plan."+stage+"_ms"] = metric{ms(stages[stage]) / traced, "ms"}
	}
	m["plan.other_ms"] = metric{ms(other) / traced, "ms"}
	m["plan.refined_per_candidate"] = metric{ratio(float64(refined), float64(candidates)), "ratio"}
	m["plan.est_error"] = metric{median(estErr), "ratio"}
	n := float64(serial.n)
	m["device.gpu_ms"] = metric{ms(serial.gpu) / n, "ms"}
	m["device.cpu_ms"] = metric{ms(serial.cpu) / n, "ms"}
	m["device.pci_ms"] = metric{ms(serial.pci) / n, "ms"}
	hit, miss := delta(u, `ar_mem_pool_gets_total{result="hit"}`), delta(u, `ar_mem_pool_gets_total{result="miss"}`)
	m["mem.pool_hit_ratio"] = metric{ratio(hit, hit+miss), "ratio"}
	perK := 1000 / float64(max(1, u.attempted()))
	m["go.gc_cycles_per_1k"] = metric{float64(u.mem1.NumGC-u.mem0.NumGC) * perK, "count/1k"}
	m["go.gc_pause_ms_per_1k"] = metric{ms(time.Duration(u.mem1.PauseTotalNs-u.mem0.PauseTotalNs)) * perK, "ms/1k"}
	s := r.samp
	m["store.delta_rows_mean"] = metric{s.deltaSum / float64(max(1, s.deltaN)), "rows"}
	m["store.merges"] = metric{float64(s.store1.Merges - s.store0.Merges), "count"}
	m["store.merge_shipped_ratio"] = metric{ratio(float64(s.store1.MergeShippedBytes-s.store0.MergeShippedBytes),
		float64(s.store1.MergeFullBytes-s.store0.MergeFullBytes)), "ratio"}
	m["trace.overhead_ratio"] = metric{ratio(float64(quantile(tp.lat, 0.5)), float64(quantile(u.lat, 0.5))), "ratio"}

	var inserts, ckpts float64
	var ingestP50, ingestP99, lag time.Duration
	var diskPerRow float64
	if r.wr != nil {
		inserts = float64(len(r.wr.batches))
		ckpts = float64(s.last.Checkpoints - s.dur0.Checkpoints)
		ingestP50, ingestP99 = quantile(r.wr.lat, 0.5), quantile(r.wr.lat, 0.99)
		lag = quantile(r.wr.lag, 0.99)
		bytes, err := dirBytes(r.sys.dir)
		if err != nil {
			return err
		}
		rows := r.s.base.len() + len(r.s.extra) + len(r.wr.batches)*insertRows
		diskPerRow = float64(bytes) / float64(rows)
	}
	m["durable.fsyncs_per_insert"] = metric{ratio(float64(s.last.Fsyncs-s.dur0.Fsyncs), inserts), "ratio"}
	m["durable.checkpoints"] = metric{ckpts, "count"}
	m["durable.segment_bytes_per_checkpoint"] = metric{ratio(float64(s.segWritten), ckpts), "B"}
	m["durable.write_amp"] = metric{ratio(float64(s.walWritten+s.segWritten), inserts*insertRows*rowBytes), "ratio"}
	m["durable.ingest_p50_ms"] = metric{ms(ingestP50), "ms"}
	m["durable.ingest_p99_ms"] = metric{ms(ingestP99), "ms"}
	m["durable.arrival_lag_ms"] = metric{ms(lag), "ms"}
	m["durable.disk_bytes_per_row"] = metric{diskPerRow, "B"}
	return nil
}
