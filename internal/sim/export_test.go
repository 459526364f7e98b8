package sim

// Hooks for the external tests of this directory, which drive the OS-level
// schedulers of internal/sched (a package that imports this one).

// RefStep advances the machine by one quantum through the reference step.
func (m *Machine) RefStep() error { return m.refStep() }

// Live returns the live processes in start order.
func (m *Machine) Live() []ProcID { return m.order }

// StepMix starts stepMix's five processes.
var StepMix = stepMix

// SpreadSched is the package tests' round-robin scheduler.
type SpreadSched = spreadSched
