package sim

import (
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/mathx"
	"github.com/harp-rm/harp/internal/workload"
)

// refStep is Step as it was before the scratch buffers: it allocates the
// states, every process's slots and every response's Busy afresh on each
// quantum. Kept as the reference for TestStepMatchesReference.
func (m *Machine) refStep() error {
	if m.now-m.lastPlace >= rebalanceEvery {
		m.dirty = true
	}
	if m.dirty {
		if err := m.place(); err != nil {
			return err
		}
	}
	dt := DefaultQuantum.Seconds()

	// Hardware-thread loads and per-core busy sibling counts.
	for i := range m.loads {
		m.loads[i] = 0
		m.busyByHW[i] = 0
	}
	for i := range m.busyCore {
		m.busyCore[i] = 0
	}
	for _, pid := range m.order {
		for _, hw := range m.placement[pid] {
			m.loads[hw]++
		}
	}
	for hw, l := range m.loads {
		if l > 0 {
			m.busyCore[m.topo[hw].Core]++
		}
	}
	busyFreq := m.governor.busyFreqScale()

	// First pass: unconstrained responses.
	type evalState struct {
		proc  *Proc
		slots []workload.Slot
		hws   []HWThread
		resp  workload.Response
	}
	states := make([]evalState, 0, len(m.order))
	var totalTraffic float64
	for _, pid := range m.order {
		p := m.procs[pid]
		st := evalState{proc: p}
		if m.now >= p.stallUntil {
			asg := m.placement[pid]
			if len(asg) > 0 {
				st.hws = asg
				st.slots = make([]workload.Slot, len(asg))
				for i, hw := range asg {
					info := m.topo[hw]
					st.slots[i] = workload.Slot{
						Kind:       info.Kind,
						BusyOnCore: m.busyCore[info.Core],
						Share:      1 / float64(m.loads[hw]),
						FreqScale:  busyFreq,
					}
				}
				st.resp = p.profile.Respond(m.plat, st.slots, workload.Conditions{MemBWGips: m.plat.MemBWGips}, nil)
				totalTraffic += st.resp.MemTraffic
			}
		}
		states = append(states, st)
	}

	// Memory-bandwidth arbitration: if aggregate traffic exceeds the
	// platform cap, give every process a proportional share and re-evaluate.
	if totalTraffic > m.plat.MemBWGips {
		for i := range states {
			st := &states[i]
			if st.resp.MemTraffic <= 0 {
				continue
			}
			share := m.plat.MemBWGips * st.resp.MemTraffic / totalTraffic
			st.resp = st.proc.profile.Respond(m.plat, st.slots, workload.Conditions{MemBWGips: share}, nil)
		}
	}

	// Advance processes, meter busy time and per-process dynamic energy.
	var finished []ProcID
	for i := range states {
		st := &states[i]
		p := st.proc
		useful := st.resp.UsefulRate * (1 - p.rateTax)
		var busySum float64
		for j, b := range st.resp.Busy {
			hw := st.hws[j]
			m.busyByHW[hw] += b
			info := m.topo[hw]
			kind := m.plat.Kinds[info.Kind]
			p.counters.CPUTimeByKind[info.Kind] += b * dt
			p.counters.DynEnergyJ += kind.ActiveWatts * kind.PowerShare(m.busyCore[info.Core]) *
				b * busyFreq * busyFreq * dt
			busySum += b
		}
		p.counters.ExecutedGI += st.resp.ExecRate * dt
		if p.threads > 0 {
			p.utilEMA.Add(mathx.Clamp(busySum/float64(p.threads), 0, 1))
		}

		adv := useful * dt
		if p.startupLeft > 0 {
			if adv <= p.startupLeft {
				p.startupLeft -= adv
				adv = 0
			} else {
				adv -= p.startupLeft
				p.startupLeft = 0
			}
		}
		if adv > 0 {
			if adv >= p.workLeft {
				frac := p.workLeft / adv // fraction of the quantum actually needed
				p.counters.UsefulGI += p.workLeft
				p.workLeft = 0
				p.done = true
				p.finishedAt = m.now + time.Duration(frac*float64(DefaultQuantum))
				finished = append(finished, p.id)
			} else {
				p.workLeft -= adv
				p.counters.UsefulGI += adv
			}
		}
	}

	// Machine-level energy metering.
	uncore := m.plat.UncoreWatts * dt
	m.energy.UncoreJ += uncore
	m.energy.PackageJ += uncore
	hwIdx := 0
	coreIdx := 0
	for kindIdx, k := range m.plat.Kinds {
		var kindJ float64
		for c := 0; c < k.Count; c++ {
			coreBusy := false
			share := k.PowerShare(m.busyCore[coreIdx])
			var dyn float64
			for s := 0; s < k.SMT; s++ {
				if m.loads[hwIdx] > 0 {
					coreBusy = true
				}
				dyn += k.ActiveWatts * share * m.busyByHW[hwIdx] * busyFreq * busyFreq
				hwIdx++
			}
			base := m.governor.idleWatts(k)
			if coreBusy {
				base = k.IdleWatts
			}
			kindJ += (base + dyn) * dt
			coreIdx++
		}
		m.energy.ByKindJ[kindIdx] += kindJ
		m.energy.PackageJ += kindJ
	}

	m.now += DefaultQuantum

	// Retire finished processes.
	for _, pid := range finished {
		p := m.procs[pid]
		delete(m.procs, pid)
		for i, id := range m.order {
			if id == pid {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.dirty = true
		for _, fn := range m.onExit {
			fn(p)
		}
	}

	// Fire tickers.
	alive := m.tickers[:0]
	for _, t := range m.tickers {
		for !t.dead && t.next <= m.now {
			t.fn(m.now)
			t.next += t.period
		}
		if !t.dead {
			alive = append(alive, t)
		}
	}
	m.tickers = alive
	return nil
}

// stepMix starts five processes of mixed behaviour on m: memory-heavy
// enough to trigger bandwidth arbitration, a spinning and a barrier-coupled
// one among them, with work that finishes some of them within a few
// simulated seconds.
func stepMix(t testing.TB, m *Machine) {
	t.Helper()
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		prof := computeProfile(40 + 30*float64(i))
		prof.MemBound = 0.1 + 0.2*float64(i)
		switch i {
		case 1:
			prof.Wait = workload.Spin
		case 3:
			prof.Barrier, prof.DynamicLoad = true, false
		}
		if _, err := m.Start(prof, name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepWithoutPlacementAllocatesNothing pins the simulator's inner loop:
// a quantum that does not re-place allocates nothing, bandwidth arbitration
// included.
func TestStepWithoutPlacementAllocatesNothing(t *testing.T) {
	m := newTestMachine(t)
	stepMix(t, m)
	if err := m.Step(); err != nil { // places
		t.Fatal(err)
	}
	const runs = 10 // AllocsPerRun steps runs+1 times, well inside one rebalance period
	if (runs+2)*DefaultQuantum >= rebalanceEvery {
		t.Fatal("the measured steps would re-place")
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Step allocates %v times per quantum, want 0", allocs)
	}
}
