package agent

import (
	"fmt"
	"slices"
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
//
// Every native store entry is in the cache of both operations from the
// start (CachedVSFs lists them), but an entry is built the first time it is
// looked up: most agents only ever run rr.
type MACModule struct {
	mu sync.Mutex
	// cache holds the entries built or installed so far, "<op>/<name>" ->
	// implementation; entry resolves the native store's others on first use.
	cache map[string]*cachedVSF
	// stubs is the remote-decision stub per operation, indexed by direction
	// and built the first time the operation's remote entry or stub is
	// asked for, so a decision pushed before activation lands in it.
	stubs [2]*sched.RemoteStub
	// active is the active cache entry per operation, indexed by the
	// direction the operation schedules: the data plane reads it every TTI
	// per cell, so it is one atomic load, not a lock and a string-keyed
	// lookup, and a swap stores a pointer the cache already holds.
	active [2]atomic.Pointer[cachedVSF]
}

// remoteVSF is the native store entry that schedules from the operation's
// remote-decision stub.
const remoteVSF = "remote"

// cachedVSF is one cached implementation under its cache name. Entries
// are immutable: a re-install under the same name replaces the entry.
type cachedVSF struct {
	name string
	impl sched.Scheduler
}

// ops names the CMI operation scheduling each direction.
var ops = [2]string{lte.Downlink: OpDLUESched, lte.Uplink: OpULUESched}

// opDir maps a CMI operation name to the direction it schedules.
func opDir(op string) (lte.Direction, bool) {
	i := slices.Index(ops[:], op)
	return lte.Direction(i), i >= 0
}

// NewMACModule builds the module with local round robin active on both
// operations; the rest of the native store is built on first use.
func NewMACModule() *MACModule {
	m := &MACModule{cache: map[string]*cachedVSF{}}
	for dir, op := range ops {
		rr, _ := m.entry(op, "rr")
		m.active[dir].Store(rr)
	}
	return m
}

// entry returns the cache entry of a VSF name under an operation, building
// a native store entry the first time it is asked for (m.mu held, or m not
// yet shared).
func (m *MACModule) entry(op, name string) (*cachedVSF, bool) {
	if vsf, ok := m.cache[op+"/"+name]; ok { // a lookup key does not allocate
		return vsf, true
	}
	mk, ok := NativeVSFStore[name]
	if !ok {
		return nil, false
	}
	var impl sched.Scheduler
	if name == remoteVSF {
		impl = m.stub(op)
	} else {
		impl = mk()
	}
	vsf := &cachedVSF{name: name, impl: impl}
	m.cache[op+"/"+name] = vsf
	return vsf, true
}

// stub returns the operation's remote-decision stub, building it on first
// use, or nil for an unknown operation (m.mu held).
func (m *MACModule) stub(op string) *sched.RemoteStub {
	dir, ok := opDir(op)
	if !ok {
		return nil
	}
	if m.stubs[dir] == nil {
		m.stubs[dir] = sched.NewRemoteStub()
	}
	return m.stubs[dir]
}

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
	stub := m.stub(op)
	m.mu.Unlock()
	if stub == nil {
		return false
	}
	return stub.Push(target, now, allocs)
}

// StubStats reports applied/missed remote decisions for an operation.
func (m *MACModule) StubStats(op string) (applied, missed int) {
	m.mu.Lock()
	stub := m.stub(op)
	m.mu.Unlock()
	if stub == nil {
		return 0, 0
	}
	return stub.Stats()
}

// InstallVSF validates and caches a pushed implementation without
// activating it (activation is a policy decision).
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
	return m.stub(op)
}

// Activate swaps the active VSF of an operation to a cached entry. This is
// the hot-swap measured in §5.4 (≈100 ns in the paper's C prototype).
func (m *MACModule) Activate(op, name string) error {
	dir, ok := opDir(op)
	if !ok {
		return fmt.Errorf("agent: mac has no VSF operation %q", op)
	}
	m.mu.Lock()
	vsf, ok := m.entry(op, name)
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

// CachedVSFs lists the cache keys, sorted (for inspection/monitoring): the
// native store under both operations, built yet or not, and every install.
func (m *MACModule) CachedVSFs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cache)+2*len(NativeVSFStore))
	for k := range m.cache {
		out = append(out, k)
	}
	for _, op := range ops {
		for name := range NativeVSFStore {
			if _, ok := m.cache[op+"/"+name]; !ok {
				out = append(out, op+"/"+name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// A "mac:" policy section (Fig. 3) swaps an operation's behavior, updates
// its parameters, or both. The only parameter is rb_share, the share
// vector of a slicing VSF; it addresses the VSF the section activates, or
// else the active one, whatever the key order. The section decodes into a
// plan per direction; resolve checks the plan against the cache and commit
// applies it.

// opPlan is one operation's section of a "mac:" policy as decoded, before
// it is checked against the cache.
type opPlan struct {
	behavior string
	swap     bool // behavior was given
	params   bool // parameters was given
	shares   []float64
	// vsf is the VSF the section addresses, once resolved.
	vsf *cachedVSF
}

// macTable is the "mac:" policy section's field table.
func macTable(plan *[2]opPlan) []yamlite.Field {
	fields := make([]yamlite.Field, len(ops))
	for dir, op := range ops {
		p := &plan[dir]
		fields[dir] = yamlite.Field{Key: op, Value: yamlite.Section([]yamlite.Field{
			{Key: "behavior", Value: yamlite.Then(yamlite.Str(&p.behavior), func() { p.swap = true })},
			{Key: "parameters", Value: yamlite.Then(yamlite.Section([]yamlite.Field{
				{Key: "rb_share", Value: yamlite.Floats(&p.shares)},
			}), func() { p.params = true })},
		})}
	}
	return fields
}

// resolve checks a decoded plan: a behavior must name a cached VSF, and
// parameters need a slicer that accepts the shares.
func (m *MACModule) resolve(plan *[2]opPlan) error {
	for dir := range plan {
		p, op := &plan[dir], ops[dir]
		p.vsf = m.active[dir].Load()
		if p.swap {
			var ok bool
			m.mu.Lock()
			p.vsf, ok = m.entry(op, p.behavior)
			m.mu.Unlock()
			if !ok {
				return fmt.Errorf("agent: no cached VSF %q for %s", p.behavior, op)
			}
		}
		if !p.params {
			continue
		}
		if _, ok := p.vsf.impl.(*sched.Slicer); !ok {
			return fmt.Errorf("agent: VSF %q accepts no parameters", p.vsf.name)
		}
		if p.shares != nil {
			if err := sched.ValidateShares(p.shares); err != nil {
				return fmt.Errorf("agent: mac.%s.parameters.rb_share: %w", op, err)
			}
		}
	}
	return nil
}

// commit applies a resolved plan.
func (m *MACModule) commit(plan *[2]opPlan) {
	for dir := range plan {
		p := &plan[dir]
		if p.swap {
			m.active[dir].Store(p.vsf)
		}
		if p.shares != nil {
			p.vsf.impl.(*sched.Slicer).SetShares(p.shares)
		}
	}
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
