package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/internal/platform"
)

// population is the driver-side view of every session connected to the RM:
// it validates each activation on receipt, remembers the latest one per
// session, and checks that spatially isolated sessions never share a core.
type population struct {
	plat *platform.Platform

	mu        sync.Mutex
	latest    map[string]harp.Activation
	received  int      // activations received by parked (non-active) sessions
	violation []string // first few per-activation violations
}

func newPopulation(plat *platform.Platform) *population {
	return &population{plat: plat, latest: map[string]harp.Activation{}}
}

// checkActivation validates one activation in isolation: every granted core
// exists with a legal thread count, the vector key parses on the platform,
// and an isolated grant realises exactly the vector's core count.
func checkActivation(plat *platform.Platform, act harp.Activation) error {
	rv, err := platform.ParseKey(plat, act.VectorKey)
	if err != nil {
		return fmt.Errorf("vector key %q: %v", act.VectorKey, err)
	}
	for _, g := range act.Cores {
		kind, err := plat.KindOf(g.Core)
		if err != nil {
			return fmt.Errorf("core %d is not on the platform", g.Core)
		}
		if g.Threads < 1 || g.Threads > plat.Kinds[kind].SMT {
			return fmt.Errorf("core %d granted %d threads (SMT %d)", g.Core, g.Threads, plat.Kinds[kind].SMT)
		}
	}
	if !act.CoAllocated && len(act.Cores) != rv.TotalCores() {
		return fmt.Errorf("isolated grant of %d cores for vector %s", len(act.Cores), act.VectorKey)
	}
	return nil
}

// observe validates and records an activation for a session. parked marks
// sessions of the standing population (their receipts are the push fan-out).
func (p *population) observe(session string, act harp.Activation, parked bool) {
	err := checkActivation(p.plat, act)
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.latest[session]; ok && err == nil && act.Seq <= prev.Seq {
		err = fmt.Errorf("seq %d after %d", act.Seq, prev.Seq)
	}
	if err != nil && len(p.violation) < 8 {
		p.violation = append(p.violation, fmt.Sprintf("%s: %v", session, err))
	}
	p.latest[session] = act
	if parked {
		p.received++
	}
}

// forget drops a departed session.
func (p *population) forget(session string) {
	p.mu.Lock()
	delete(p.latest, session)
	p.mu.Unlock()
}

// takeViolations returns and clears the per-activation violations.
func (p *population) takeViolations() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.violation
	p.violation = nil
	return v
}

func (p *population) fanout() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.received
}

// doubleGrant reports the first core two isolated sessions both hold in
// their latest activations ("" when none).
func (p *population) doubleGrant() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	owner := map[int]string{}
	for session, act := range p.latest {
		if act.CoAllocated {
			continue
		}
		for _, g := range act.Cores {
			if other, ok := owner[g.Core]; ok && other != session {
				return fmt.Sprintf("core %d granted to isolated sessions %s and %s", g.Core, other, session)
			}
			owner[g.Core] = session
		}
	}
	return ""
}

// settledDoubleGrant is doubleGrant made robust against pushes still in
// flight to parked readers: a transient overlap between two epochs' views
// disappears within the grace period, a real double grant persists.
func (p *population) settledDoubleGrant(grace time.Duration) string {
	deadline := time.Now().Add(grace)
	for {
		msg := p.doubleGrant()
		if msg == "" || time.Now().After(deadline) {
			return msg
		}
		time.Sleep(time.Millisecond)
	}
}

// standing returns a copy of the latest activation per session.
func (p *population) standing() map[string]harp.Activation {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]harp.Activation, len(p.latest))
	for k, v := range p.latest {
		out[k] = v
	}
	return out
}
