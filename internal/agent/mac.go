package agent

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/sched"
	"flexran/internal/vsfdsl"
	"flexran/internal/wire"
	"flexran/internal/yamlite"
)

// CMI operation names of the MAC/RLC control module (the VSF slots the
// paper's prototype implements).
const (
	OpDLUESched = "dl_ue_sched"
	OpULUESched = "ul_ue_sched"
)

// MACVars is the variable environment exposed to vsfdsl scheduling
// programs, in slot order. A pushed program may bind any subset by name;
// binding an unknown name is rejected at install time.
var MACVars = []string{
	"cqi",            // reported wideband CQI
	"queue",          // pending bytes
	"avg_rate",       // served-rate EWMA, kb/s
	"inst_rate",      // full-band achievable rate at current CQI, kb/s
	"last_sched_age", // subframes since last allocation
	"group",          // slice/tier label
	"total_prb",      // cell PRB budget
	"n_ue",           // backlogged UE count
	"sf",             // current subframe
}

// NativeVSFStore is the agent's built-in implementation store: the
// counterpart of the paper's signed shared-library repository. VSFNative
// pushes reference entries by name.
var NativeVSFStore = map[string]func() sched.Scheduler{
	"rr":     func() sched.Scheduler { return sched.NewRoundRobin() },
	"pf":     func() sched.Scheduler { return sched.NewProportionalFair() },
	"maxcqi": func() sched.Scheduler { return sched.NewMaxCQI() },
	"remote": func() sched.Scheduler { return sched.NewRemoteStub() },
	"slice-rr": func() sched.Scheduler {
		return sched.NewSlicer("slice-rr", nil, false,
			func() sched.Scheduler { return sched.NewRoundRobin() })
	},
}

// MACModule is the MAC/RLC control module of the agent: it owns the VSF
// cache, the active VSF per CMI operation, and the remote-decision stubs
// fed by DLSchedule/ULSchedule commands.
type MACModule struct {
	mu    sync.Mutex
	cache map[string]*cachedVSF // "<op>/<name>" -> implementation
	stubs map[string]*sched.RemoteStub
	// active is the active cache entry per operation, indexed by the
	// direction the operation schedules: the data plane reads it every TTI
	// per cell, so it is one atomic load, not a lock and a string-keyed
	// lookup, and a swap stores a pointer the cache already holds.
	active [2]atomic.Pointer[cachedVSF]
}

// cachedVSF is one cached implementation under its cache name. Entries
// are immutable: a re-install under the same name replaces the entry.
type cachedVSF struct {
	name string
	impl sched.Scheduler
}

// opDir maps a CMI operation name to the direction it schedules.
func opDir(op string) (lte.Direction, bool) {
	switch op {
	case OpDLUESched:
		return lte.Downlink, true
	case OpULUESched:
		return lte.Uplink, true
	}
	return 0, false
}

// NewMACModule builds the module with local round robin active on both
// operations and the native store preloaded into the cache.
func NewMACModule() *MACModule {
	m := &MACModule{
		cache: map[string]*cachedVSF{},
		stubs: map[string]*sched.RemoteStub{},
	}
	for _, op := range []string{OpDLUESched, OpULUESched} {
		for name, mk := range NativeVSFStore {
			impl := mk()
			m.cache[op+"/"+name] = &cachedVSF{name: name, impl: impl}
			if stub, ok := impl.(*sched.RemoteStub); ok {
				m.stubs[op] = stub
			}
		}
		dir, _ := opDir(op)
		m.active[dir].Store(m.cache[op+"/rr"])
	}
	return m
}

// Name implements Module.
func (*MACModule) Name() string { return "mac" }

// Schedule runs the active VSF of the operation scheduling in.Dir (called
// from the data plane hooks every TTI).
func (m *MACModule) Schedule(in sched.Input) []sched.Alloc {
	return m.active[in.Dir].Load().impl.Schedule(in)
}

// PushDecision stores a remote scheduling command into the operation's
// stub (whether or not the stub is currently active, so a later swap to
// remote mode picks up immediately).
func (m *MACModule) PushDecision(op string, target, now lte.Subframe, allocs []sched.Alloc) bool {
	m.mu.Lock()
	stub := m.stubs[op]
	m.mu.Unlock()
	if stub == nil {
		return false
	}
	return stub.Push(target, now, allocs)
}

// StubStats reports applied/missed remote decisions for an operation.
func (m *MACModule) StubStats(op string) (applied, missed int) {
	m.mu.Lock()
	stub := m.stubs[op]
	m.mu.Unlock()
	if stub == nil {
		return 0, 0
	}
	return stub.Stats()
}

// InstallVSF implements Module: it validates and caches a pushed
// implementation without activating it (activation is a policy decision).
func (m *MACModule) InstallVSF(up *protocol.VSFUpdate) error {
	if up.VSF != OpDLUESched && up.VSF != OpULUESched {
		return fmt.Errorf("agent: mac has no VSF operation %q", up.VSF)
	}
	if up.Name == "" {
		return fmt.Errorf("agent: VSF update without cache name")
	}
	var impl sched.Scheduler
	switch up.VSFKind {
	case protocol.VSFNative:
		mk, ok := NativeVSFStore[up.Ref]
		if !ok {
			return fmt.Errorf("agent: native store has no entry %q", up.Ref)
		}
		impl = mk()
	case protocol.VSFProgram:
		var prog vsfdsl.Program
		if err := wire.Unmarshal(up.Program, &prog); err != nil {
			return fmt.Errorf("agent: rejecting VSF program: %w", err)
		}
		if err := checkVars(prog.Vars()); err != nil {
			return err
		}
		impl = newDSLScheduler(up.Name, &prog)
	default:
		return fmt.Errorf("agent: unknown VSF payload kind %d", up.VSFKind)
	}
	m.mu.Lock()
	m.cache[up.VSF+"/"+up.Name] = &cachedVSF{name: up.Name, impl: impl}
	m.mu.Unlock()
	return nil
}

func checkVars(vars []string) error {
	allowed := map[string]bool{}
	for _, v := range MACVars {
		allowed[v] = true
	}
	for _, v := range vars {
		if !allowed[v] {
			return fmt.Errorf("agent: VSF program binds unknown variable %q", v)
		}
	}
	return nil
}

// InstallLocal caches a locally built VSF implementation. It is the
// agent-side half of the FlexRAN Agent API (paper §4.2: API calls can be
// invoked "directly from the agent if control for some operation has been
// delegated to it") — use-case code co-located with the agent registers
// composite schedulers (e.g. the eICIC ABS switches) that cannot be
// expressed as a single store reference.
func (m *MACModule) InstallLocal(op, name string, impl sched.Scheduler) error {
	if op != OpDLUESched && op != OpULUESched {
		return fmt.Errorf("agent: mac has no VSF operation %q", op)
	}
	m.mu.Lock()
	m.cache[op+"/"+name] = &cachedVSF{name: name, impl: impl}
	m.mu.Unlock()
	return nil
}

// RemoteStub returns the operation's remote-decision stub so composite
// local VSFs (e.g. the optimized-eICIC macro switch) can embed the same
// stub that DLSchedule/ULSchedule commands feed.
func (m *MACModule) RemoteStub(op string) *sched.RemoteStub {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stubs[op]
}

// Activate swaps the active VSF of an operation to a cached entry. This is
// the hot-swap measured in §5.4 (≈100 ns in the paper's C prototype).
func (m *MACModule) Activate(op, name string) error {
	dir, ok := opDir(op)
	if !ok {
		return fmt.Errorf("agent: mac has no VSF operation %q", op)
	}
	m.mu.Lock()
	vsf, ok := m.cache[op+"/"+name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("agent: no cached VSF %q for %s", name, op)
	}
	m.active[dir].Store(vsf)
	return nil
}

// ActiveName returns the cache name of the operation's active VSF.
func (m *MACModule) ActiveName(op string) string {
	dir, ok := opDir(op)
	if !ok {
		return ""
	}
	return m.active[dir].Load().name
}

// CachedVSFs lists the cache keys, sorted (for inspection/monitoring).
func (m *MACModule) CachedVSFs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cache))
	for k := range m.cache {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reconfigure implements Module: it applies one "mac:" policy section
// (Fig. 3): per-operation behavior swaps and parameter updates.
func (m *MACModule) Reconfigure(doc *yamlite.Node) error {
	if doc == nil || doc.Kind != yamlite.KindMap {
		return fmt.Errorf("agent: mac policy section must be a map")
	}
	for _, op := range doc.Keys() {
		section := doc.Get(op)
		if op != OpDLUESched && op != OpULUESched {
			return fmt.Errorf("agent: mac has no VSF operation %q", op)
		}
		if b := section.Get("behavior"); b != nil {
			if err := m.Activate(op, b.Str()); err != nil {
				return err
			}
		}
		if params := section.Get("parameters"); params != nil {
			if err := m.applyParams(op, params); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *MACModule) applyParams(op string, params *yamlite.Node) error {
	dir, _ := opDir(op) // Reconfigure vetted op
	p, ok := m.active[dir].Load().impl.(sched.Parametrizable)
	if !ok {
		return fmt.Errorf("agent: active VSF %q accepts no parameters", m.ActiveName(op))
	}
	for _, key := range params.Keys() {
		val, err := nodeValue(params.Get(key))
		if err != nil {
			return fmt.Errorf("agent: parameter %q: %w", key, err)
		}
		if err := p.SetParam(key, val); err != nil {
			return err
		}
	}
	return nil
}

// nodeValue converts a yamlite node into the Parametrizable value types.
func nodeValue(n *yamlite.Node) (interface{}, error) {
	switch n.Kind {
	case yamlite.KindSeq:
		return n.Floats()
	case yamlite.KindScalar:
		if f, err := n.Float(); err == nil {
			return f, nil
		}
		if b, err := n.Bool(); err == nil {
			return b, nil
		}
		return n.Str(), nil
	}
	return nil, fmt.Errorf("unsupported parameter node kind %v", n.Kind)
}

// newDSLScheduler wraps a verified vsfdsl program as a metric scheduler.
func newDSLScheduler(name string, prog *vsfdsl.Program) sched.Scheduler {
	// Map the program's bound variables onto MACVars slots once.
	slots := make([]int, len(prog.Vars()))
	index := map[string]int{}
	for i, v := range MACVars {
		index[v] = i
	}
	for i, v := range prog.Vars() {
		slots[i] = index[v]
	}
	stack := make([]float64, prog.MaxStack())
	env := make([]float64, len(slots))
	full := make([]float64, len(MACVars))
	return sched.NewMetric(name, func(in sched.Input, ue sched.UEInfo) float64 {
		full[0] = float64(ue.CQI)
		full[1] = float64(ue.QueueBytes)
		full[2] = ue.AvgRateKbps
		full[3] = float64(lte.TBSBits(in.Dir, ue.CQI, in.TotalPRB)) // kb/s == bits/TTI
		full[4] = float64(in.SF - ue.LastSched)
		full[5] = float64(ue.Group)
		full[6] = float64(in.TotalPRB)
		full[7] = float64(len(in.UEs))
		full[8] = float64(in.SF)
		for i, s := range slots {
			env[i] = full[s]
		}
		v, err := prog.EvalStack(env, stack)
		if err != nil {
			return -1 // sandbox: a failing program schedules nothing
		}
		return v
	})
}
