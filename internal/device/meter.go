package device

import (
	"fmt"
	"time"
)

// Meter accumulates the simulated busy time of each resource over a query
// execution. The three buckets correspond to the stacked-bar breakdowns of
// Figs 9 and 10 in the paper ("Involved Devices: GPU / CPU / PCI").
//
// A Meter charges sequentially: the paper's A&R plans run the approximation
// subplan to completion before the first refinement operator (§V-B, Fig 7),
// so total query time is the sum of the buckets.
type Meter struct {
	sys *System

	GPU time.Duration
	CPU time.Duration
	PCI time.Duration
}

// NewMeter returns a Meter charging against the given system.
func NewMeter(sys *System) *Meter { return &Meter{sys: sys} }

// System returns the system the meter charges against.
func (m *Meter) System() *System { return m.sys }

// Total returns the summed simulated time across all resources.
func (m *Meter) Total() time.Duration { return m.GPU + m.CPU + m.PCI }

// Add merges another meter's charges into m.
func (m *Meter) Add(o *Meter) {
	m.GPU += o.GPU
	m.CPU += o.CPU
	m.PCI += o.PCI
}

// kernelTime is the generic device charge: fixed launch latency plus the
// larger of the bandwidth term and the compute term (a kernel is either
// memory-bound or compute-bound).
func kernelTime(d *Device, seqBytes, randBytes, ops int64, threads int) time.Duration {
	bw := d.EffectiveBW(threads)
	mem := (float64(seqBytes) + float64(randBytes)*d.RandomPenalty) / bw
	t := threads
	if t < 1 {
		t = 1
	}
	if d.Kind == GPUKind {
		t = 1 // GPU OpRate is already device-wide
	}
	comp := float64(ops) / (d.OpRate * float64(t))
	body := mem
	if comp > body {
		body = comp
	}
	return d.Launch + seconds(body)
}

// GPUKernel charges one GPU kernel that scans seqBytes sequentially,
// touches randBytes with gather/scatter access, and executes ops simple
// tuple-operations.
func (m *Meter) GPUKernel(seqBytes, randBytes, ops int64) {
	m.GPU += kernelTime(m.sys.GPU, seqBytes, randBytes, ops, 1)
}

// CPUWork charges one CPU operator using the given number of threads.
func (m *Meter) CPUWork(threads int, seqBytes, randBytes, ops int64) {
	m.CPU += kernelTime(m.sys.CPU, seqBytes, randBytes, ops, threads)
}

// Transfer charges a PCI-E transfer of n bytes (either direction).
func (m *Meter) Transfer(n int64) {
	if n <= 0 {
		return
	}
	m.PCI += m.sys.Bus.TransferTime(n)
}

// StreamHypothetical returns the paper's "Stream Input (Hypothetical)"
// baseline: the minimal time any streaming GPU system would need just to
// push the query's input through the PCI-E bus (§VI-A).
func (m *Meter) StreamHypothetical(inputBytes int64) time.Duration {
	return m.sys.Bus.TransferTime(inputBytes)
}

// String formats the meter like the paper's stacked bars.
func (m *Meter) String() string {
	return fmt.Sprintf("total %v (GPU %v, CPU %v, PCI %v)", m.Total(), m.GPU, m.CPU, m.PCI)
}
