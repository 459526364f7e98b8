package harpsim

import "github.com/harp-rm/harp/internal/core"

// RunObserved is Run on the given solver, handing every pushed decision to
// onDecision as well as to the simulated application.
func RunObserved(sc Scenario, opts Options, allocator core.Allocator, onDecision func(core.Decision)) error {
	opts = opts.withDefaults()
	opts.allocator = allocator
	machine, err := newMachine(sc, opts)
	if err != nil {
		return err
	}
	h, err := attachHARP(machine, sc, opts)
	if err != nil {
		return err
	}
	h.mgr.OnDecision(onDecision)
	if err := startApps(machine, sc.Apps); err != nil {
		return err
	}
	if err := machine.RunUntilIdle(runHorizon); err != nil {
		return err
	}
	return h.shutdownStore()
}

// RunChurnOn is RunChurn on the given solver.
func RunChurnOn(opts ChurnOptions, allocator core.Allocator) (*ChurnResult, error) {
	opts.allocator = allocator
	return RunChurn(opts)
}
