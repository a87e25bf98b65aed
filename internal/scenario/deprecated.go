package scenario

// Build wires the scenario on the TTI engine; the argument is the size of
// the worker pool the engine no longer has.
//
// Deprecated: the argument is ignored; kept for bench/ until ROADMAP item
// B. Use Execute.
func (sc *Scenario) Build(workers int) (*Runtime, error) { return sc.build() }

// RunWorkers is Execute; the argument is the size of the worker pool the
// engine no longer has.
//
// Deprecated: the argument is ignored; kept for bench/ until ROADMAP item
// B. Use Execute.
func (sc *Scenario) RunWorkers(workers int) (*Result, error) { return sc.Execute() }
