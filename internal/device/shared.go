package device

import (
	"fmt"
	"sync"
	"time"
)

// SharedMeter aggregates Meter charges from concurrently executing queries.
// A plain Meter is owned by one execution and is not safe for concurrent
// use; server sessions and the scheduler merge finished per-query meters
// into SharedMeters to keep running GPU/CPU/PCI totals across goroutines.
type SharedMeter struct {
	mu      sync.Mutex
	gpu     time.Duration
	cpu     time.Duration
	pci     time.Duration
	queries int64
}

// Merge folds one finished query meter into the running totals. A nil meter
// (e.g. a bwdecompose statement) counts as a query with no charges.
func (s *SharedMeter) Merge(m *Meter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	if m == nil {
		return
	}
	s.gpu += m.GPU
	s.cpu += m.CPU
	s.pci += m.PCI
}

// Totals returns the accumulated per-resource busy times and the number of
// merged queries.
func (s *SharedMeter) Totals() (gpu, cpu, pci time.Duration, queries int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gpu, s.cpu, s.pci, s.queries
}

// String formats the totals like Meter.String, plus the query count.
func (s *SharedMeter) String() string {
	gpu, cpu, pci, q := s.Totals()
	return fmt.Sprintf("%d queries, total %v (GPU %v, CPU %v, PCI %v)",
		q, gpu+cpu+pci, gpu, cpu, pci)
}
