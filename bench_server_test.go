package repro_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/spatial"
)

// BenchmarkServerConcurrentStreams drives the query service with 32
// concurrent clients — half classic CPU streams, half A&R GPU streams, the
// §VI-E Fig 11 setup — and reports wall-clock requests/sec plus the
// simulated Fig 11 gap: the cumulative simulated throughput and how much of
// it the A&R stream stacks on top of the saturated memory wall.
func BenchmarkServerConcurrentStreams(b *testing.B) {
	catalog := plan.NewCatalog(device.PaperSystem())
	d := spatial.Generate(100_000, 7)
	if err := d.Load(catalog); err != nil {
		b.Fatal(err)
	}
	if err := d.Decompose(catalog); err != nil {
		b.Fatal(err)
	}
	eng := engine.New(catalog, engine.Options{
		Sched: engine.SchedConfig{CPUWorkers: 16, GPUStreams: 2, ARQueue: 1 << 20},
	})
	srv := server.New(eng)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().String()

	const clients = 32
	work := make(chan int, b.N)
	for i := 0; i < b.N; i++ {
		work <- i
	}
	close(work)

	var failures, empty atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		mode := `\mode classic`
		if i%2 == 1 {
			mode = `\mode ar`
		}
		wg.Add(1)
		go func(mode string) {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				failures.Add(1)
				return
			}
			defer cl.Close()
			if _, err := cl.Query(mode); err != nil {
				failures.Add(1)
				return
			}
			for j := range work {
				// The Table I box in degree literals (the columns are
				// decimal(8,5)), its western edge widened by up to 0.007°.
				q := fmt.Sprintf("select count(lon) from trips where lon between %s and %s and lat between %s and %s",
					fixed.Format(spatial.QueryLonLo-int64(j%8)*100, fixed.Scale5), fixed.Format(spatial.QueryLonHi, fixed.Scale5),
					fixed.Format(spatial.QueryLatLo, fixed.Scale5), fixed.Format(spatial.QueryLatHi, fixed.Scale5))
				got, err := cl.Query(q)
				if err != nil {
					failures.Add(1)
					return
				}
				if len(got) == 0 || got[0] == "[0]" {
					empty.Add(1)
				}
			}
		}(mode)
	}
	wg.Wait()
	b.StopTimer()
	if n := failures.Load(); n > 0 {
		b.Fatalf("%d client streams failed", n)
	}
	if n := empty.Load(); n > 0 {
		b.Fatalf("%d box counts came back zero: the query misses the generated fixes", n)
	}

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	gpu, cpu, pci, queries := eng.Scheduler().Totals.Totals()
	if queries > clients { // skip the warm-up-sized runs
		simTotal := (gpu + cpu + pci).Seconds()
		if simTotal > 0 {
			// Simulated cumulative throughput: queries per second of
			// simulated busy time, and the share the GPU stream adds on top
			// of the host (CPU+PCI) side of the memory wall.
			b.ReportMetric(float64(queries)/simTotal, "sim_q/s")
			b.ReportMetric(gpu.Seconds()/simTotal*100, "sim_gpu_%")
		}
	}
}
