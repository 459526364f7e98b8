package sim

import (
	"slices"
	"time"

	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/workload"
)

// Proc is one running application process. All mutation goes through the
// owning Machine (the simulator is single-goroutine by design; determinism
// matters more than parallel simulation here).
type Proc struct {
	id      ProcID
	name    string
	profile *workload.Profile

	threads  int
	affinity []HWThread // nil = all hardware threads

	workLeft    float64 // useful giga-instructions remaining
	startupLeft float64 // serial startup work remaining
	stallUntil  time.Duration
	rateTax     float64 // fraction of useful progress lost to management overhead

	startedAt  time.Duration
	finishedAt time.Duration
	done       bool

	counters Counters
	utilEMA  *mathx.EMA
}

// ID returns the process identifier.
func (p *Proc) ID() ProcID { return p.id }

// Name returns the instance name (unique within the machine).
func (p *Proc) Name() string { return p.name }

// Profile returns the application's behaviour model.
func (p *Proc) Profile() *workload.Profile { return p.profile }

// Affinity returns the allowed hardware threads (nil = unrestricted). The
// returned slice is a copy.
func (p *Proc) Affinity() []HWThread { return slices.Clone(p.affinity) }

// Done reports whether the process has finished its work.
func (p *Proc) Done() bool { return p.done }

// StartedAt returns the virtual time the process was started.
func (p *Proc) StartedAt() time.Duration { return p.startedAt }

// FinishedAt returns the virtual completion time (only meaningful once Done).
func (p *Proc) FinishedAt() time.Duration { return p.finishedAt }

// Counters returns a snapshot of the accumulated execution metrics.
func (p *Proc) Counters() Counters {
	c := p.counters
	c.CPUTimeByKind = slices.Clone(c.CPUTimeByKind)
	return c
}

// CountersInto copies the accumulated execution metrics into c, reusing its
// CPUTimeByKind slice when it has sufficient capacity. The monitor's 50 ms
// sampling path reads every tracked process on every tick; this variant
// keeps that path allocation-free.
func (p *Proc) CountersInto(c *Counters) {
	byKind := c.CPUTimeByKind
	if cap(byKind) < len(p.counters.CPUTimeByKind) {
		byKind = make([]float64, len(p.counters.CPUTimeByKind))
	}
	byKind = byKind[:len(p.counters.CPUTimeByKind)]
	copy(byKind, p.counters.CPUTimeByKind)
	*c = p.counters
	c.CPUTimeByKind = byKind
}

// view builds the scheduler-visible summary.
func (p *Proc) view() ProcView {
	return ProcView{
		ID:            p.id,
		Threads:       p.threads,
		Affinity:      p.Affinity(),
		MemBound:      p.profile.MemBound,
		AvgThreadUtil: p.utilEMA.Value(),
	}
}
