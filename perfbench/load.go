package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/server"
)

func newCatalog() *plan.Catalog { return plan.NewCatalog(device.PaperSystem()) }

// system is one served engine: an in-process server.Server over an
// engine.Engine on a loopback listener.
type system struct {
	eng    *engine.Engine
	srv    *server.Server
	addr   string
	dir    string // data directory of a durable engine
	served chan error
	stopBg context.CancelFunc
}

// start builds and serves one engine with arserve's default options
// (one GPU stream, default CPU pool and A&R queue, 128-entry plan cache,
// one thread per query, default merge threshold, fsync always) and
// returns once the listener accepts connections.
func start(s *scenario, tmp string) (*system, error) {
	cat, err := s.load()
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Sched: engine.SchedConfig{GPUStreams: 1}, CacheSize: 128, Threads: 1, Fsync: "always"}
	sys := &system{served: make(chan error, 1)}
	if s.durable {
		if sys.dir, err = os.MkdirTemp(tmp, s.name+"-"); err != nil {
			return nil, err
		}
		opts.DataDir = sys.dir
	}
	if sys.eng, err = engine.Open(cat, opts); err != nil {
		os.RemoveAll(sys.dir)
		return nil, err
	}
	var ctx context.Context
	ctx, sys.stopBg = context.WithCancel(context.Background())
	sys.eng.StartMaintenance(ctx)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.stopBg()
		sys.eng.Close()
		os.RemoveAll(sys.dir)
		return nil, err
	}
	sys.srv = server.New(sys.eng)
	sys.addr = l.Addr().String()
	go func() { sys.served <- sys.srv.Serve(l) }()
	for sys.srv.Addr() == nil { // Serve has not taken the listener yet
		time.Sleep(50 * time.Microsecond)
	}
	return sys, nil
}

// stop closes the server and the engine, waits for both, and removes the
// data directory.
func (sys *system) stop() error {
	err := sys.srv.Close()
	if serr := <-sys.served; err == nil {
		err = serr
	}
	sys.stopBg()
	if cerr := sys.eng.Close(); err == nil {
		err = cerr
	}
	if sys.dir != "" {
		if rerr := os.RemoveAll(sys.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// setUp starts the system n times and keeps the last one. It returns each
// set-up's duration and the live heap the kept system holds after a
// forced GC.
func setUp(s *scenario, n int, tmp string) (*system, []time.Duration, uint64, error) {
	var times []time.Duration
	var ms runtime.MemStats
	var sys *system
	for i := 0; i < n; i++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, nil, 0, err
			}
			sys = nil
		}
		liveHeap(&ms)
		before := ms.HeapAlloc
		t0 := time.Now()
		var err error
		if sys, err = start(s, tmp); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0))
		if i == n-1 {
			liveHeap(&ms)
			return sys, times, ms.HeapAlloc - min(before, ms.HeapAlloc), nil
		}
	}
	return nil, nil, 0, errors.New("no set-up requested")
}

// liveHeap reads memory statistics after two collections: the first moves
// the sync.Pool-backed arena into its victim cache, the second drops it,
// so the heap holds only what is reachable.
func liveHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// failLatency stands in for the latency of a failed statement: a failure
// misses every latency limit.
const failLatency = time.Duration(math.MaxInt64)

// boundRead is an ingest-read count whose answer is checked after the run:
// it must include every batch acknowledged before it was sent and nothing
// beyond the batches sent before its reply arrived.
type boundRead struct {
	st          *stmt
	got         int64
	ackedBefore int64
	sentAfter   int64
}

// worker is one closed-loop client connection.
type worker struct {
	spec    *clientSpec
	prepare []string
	id      int
	addr    string
	cl      *server.Client
	used    int // statements sent on the current connection
	next    int // next index into spec.list
	writer  *writer

	lat          []time.Duration
	failed       int64
	reads, zeros int64
	bounds       []boundRead
	tr           *tracer // non-nil while the traced phase runs
}

func (w *worker) connect() error {
	cl, err := server.Dial(w.addr)
	if err != nil {
		return err
	}
	var setup []string
	if w.spec.mode != engine.ModeAuto {
		setup = append(setup, `\mode `+w.spec.mode.String())
	}
	for _, line := range append(setup, w.prepare...) {
		if _, err := cl.Query(line); err != nil {
			cl.Close()
			return fmt.Errorf("%s: %w", line, err)
		}
	}
	w.cl, w.used = cl, 0
	return nil
}

func (w *worker) close() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
}

// isErrorReply tells an "error:" terminator from a broken connection.
func isErrorReply(err error) bool { return strings.HasPrefix(err.Error(), "server: ") }

// do sends one statement and checks its reply against the oracle. Only an
// oracle mismatch or a failed reconnect is returned as an error; error
// replies and dropped connections are counted as failed statements.
func (w *worker) do(st *stmt, record bool) error {
	if w.cl != nil && w.spec.reconnect > 0 && w.used >= w.spec.reconnect {
		w.close()
	}
	if w.cl == nil {
		if err := w.connect(); err != nil {
			return fmt.Errorf("client %d: connect: %w", w.id, err)
		}
	}
	w.used++
	var acked int64
	if w.writer != nil {
		acked = w.writer.acked.Load()
	}
	t0 := time.Now()
	reply, err := w.cl.Query(st.line)
	t1 := time.Now()
	if err != nil {
		if !isErrorReply(err) {
			w.close()
		}
		if record {
			w.failed++
			w.lat = append(w.lat, failLatency)
		}
		return nil
	}
	if err := st.check(reply); err != nil {
		return fmt.Errorf("oracle mismatch on %q: %v", st.line, err)
	}
	if w.writer != nil && st.want == nil {
		if len(reply) != 1 {
			return fmt.Errorf("oracle mismatch on %q: got %q, want one count", st.line, reply)
		}
		w.bounds = append(w.bounds, boundRead{st: st, got: lastInt(reply[0]), ackedBefore: acked, sentAfter: w.writer.sent.Load()})
	}
	if !record {
		return nil
	}
	w.lat = append(w.lat, t1.Sub(t0))
	if st.read {
		w.reads++
		if isZero(reply) {
			w.zeros++
		}
	}
	if w.tr != nil {
		return w.tr.statement(int64(w.id)<<32|int64(w.next), st, t0, t1)
	}
	return nil
}

// drive sends the client's statements until the deadline.
func (w *worker) drive(deadline time.Time) error {
	for time.Now().Before(deadline) {
		st := &w.spec.list[w.next%len(w.spec.list)]
		w.next++
		if err := w.do(st, true); err != nil {
			return err
		}
	}
	return nil
}

// writer is ingest-read's open-loop INSERT generator: batch i is due at
// start + i/rate whatever the replies do, and its latency runs from that
// due time, so a stall charges every statement queued behind it.
type writer struct {
	addr    string
	batches []stmt
	rate    float64

	sent, acked atomic.Int64
	lag, lat    []time.Duration // per batch: send - due, ack - due
}

func (wr *writer) run(ctx context.Context, start time.Time) error {
	cl, err := server.Dial(wr.addr)
	if err != nil {
		return fmt.Errorf("writer: connect: %w", err)
	}
	defer cl.Close()
	for i := range wr.batches {
		due := start.Add(time.Duration(float64(i) / wr.rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		sendAt := time.Now()
		wr.sent.Add(1)
		reply, err := cl.Query(wr.batches[i].line)
		if err != nil {
			// A lost INSERT leaves the read bounds unknowable: end the run.
			return fmt.Errorf("writer: batch %d: %w", i, err)
		}
		if err := wr.batches[i].check(reply); err != nil {
			return fmt.Errorf("writer: batch %d: %v", i, err)
		}
		wr.acked.Add(1)
		wr.lag = append(wr.lag, sendAt.Sub(due))
		wr.lat = append(wr.lat, time.Since(due))
	}
	return nil
}

// backlogged reports a generator that never caught up: over the last
// quarter of the schedule the median batch was still sent over 250 ms late.
func (wr *writer) backlogged() bool {
	tail := wr.lag[len(wr.lag)*3/4:]
	return len(tail) > 0 && quantile(tail, 0.5) > 250*time.Millisecond
}

// phase is one closed-loop measurement window.
type phase struct {
	lat          []time.Duration
	failed       int64
	reads, zeros int64
	elapsed      time.Duration
	reg0, reg1   map[string]float64 // engine metrics registry before and after
	mem0, mem1   runtime.MemStats
}

func (p *phase) attempted() int64 { return int64(len(p.lat)) }

// runPhase drives every worker until the deadline and merges their records.
func runPhase(sys *system, ws []*worker, d time.Duration) (*phase, error) {
	p := &phase{reg0: scrape(sys.eng)}
	runtime.ReadMemStats(&p.mem0)
	marks := make([]int, len(ws))
	failed, reads, zeros := make([]int64, len(ws)), make([]int64, len(ws)), make([]int64, len(ws))
	for i, w := range ws {
		marks[i], failed[i], reads[i], zeros[i] = len(w.lat), w.failed, w.reads, w.zeros
	}
	t0 := time.Now()
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.drive(t0.Add(d))
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	runtime.ReadMemStats(&p.mem1)
	p.reg1 = scrape(sys.eng)
	for i, w := range ws {
		w.tr = nil // a traced phase ends with its phase
		p.lat = append(p.lat, w.lat[marks[i]:]...)
		p.failed += w.failed - failed[i]
		p.reads += w.reads - reads[i]
		p.zeros += w.zeros - zeros[i]
	}
	return p, errors.Join(errs...)
}

// stats returns the statements completed per second over the window and
// the p50 and p99 latencies in milliseconds.
func (p *phase) stats() (qps, p50, p99 float64) {
	ok := 0
	for _, d := range p.lat {
		if d != failLatency {
			ok++
		}
	}
	return float64(ok) / p.elapsed.Seconds(), ms(quantile(p.lat, 0.5)), ms(quantile(p.lat, 0.99))
}

// quantile returns the q-quantile of ds (nearest rank on a sorted copy).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
