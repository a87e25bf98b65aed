package agent

import (
	"fmt"
	"math"
	"sync"

	"flexran/internal/protocol"
	"flexran/internal/yamlite"
)

// Module is the Control Module Interface (CMI): the abstraction through
// which the agent exposes each control subsystem (MAC/RLC, RRC, agent
// management) to the delegation machinery without knowing implementation
// details (paper §4.3.1).
type Module interface {
	// Name is the module key used in policy documents ("mac", "rrc", ...).
	Name() string
	// InstallVSF caches a pushed VSF implementation (VSF updation).
	InstallVSF(up *protocol.VSFUpdate) error
	// Reconfigure checks the module's section of a policy document and
	// returns the change it makes. Nothing changes until that function
	// runs, so a document is applied whole or not at all.
	Reconfigure(doc *yamlite.Node) (func(), error)
}

// MgmtModule is the agent-management control module: it owns the knobs of
// the agent runtime itself — master-agent subframe synchronization and UE
// event forwarding. The master reconfigures it like any other module:
//
//	agent:
//	  sync_period: 1      # SubframeTrigger every TTI (0 disables)
//	  forward_events: yes
type MgmtModule struct {
	mu sync.Mutex
	k  mgmtKnobs
}

type mgmtKnobs struct {
	syncPeriod    int
	forwardEvents bool
}

// NewMgmtModule returns the module with sync off and event forwarding on.
func NewMgmtModule() *MgmtModule {
	return &MgmtModule{k: mgmtKnobs{forwardEvents: true}}
}

// Name implements Module.
func (*MgmtModule) Name() string { return "agent" }

// InstallVSF implements Module; the management module has no VSF slots.
func (*MgmtModule) InstallVSF(up *protocol.VSFUpdate) error {
	return fmt.Errorf("agent: management module has no VSF %q", up.VSF)
}

// Reconfigure implements Module.
func (m *MgmtModule) Reconfigure(doc *yamlite.Node) (func(), error) {
	if doc == nil || doc.Kind != yamlite.KindMap {
		return nil, fmt.Errorf("agent: agent policy section must be a map")
	}
	m.mu.Lock()
	k := m.k
	m.mu.Unlock()
	for _, key := range doc.Keys() {
		val := doc.Get(key)
		switch key {
		case "sync_period":
			p, err := val.Int()
			if err != nil || p < 0 {
				return nil, fmt.Errorf("agent: bad sync_period %q", val.Str())
			}
			k.syncPeriod = int(p)
		case "forward_events":
			b, err := val.Bool()
			if err != nil {
				return nil, fmt.Errorf("agent: bad forward_events %q", val.Str())
			}
			k.forwardEvents = b
		default:
			return nil, fmt.Errorf("agent: management module has no knob %q", key)
		}
	}
	return func() {
		m.mu.Lock()
		m.k = k
		m.mu.Unlock()
	}, nil
}

// SyncPeriod returns the SubframeTrigger period (0 = disabled).
func (m *MgmtModule) SyncPeriod() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.k.syncPeriod
}

// ForwardEvents reports whether UE events are relayed to the master.
func (m *MgmtModule) ForwardEvents() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.k.forwardEvents
}

// RRCModule is the radio-resource-control module. The prototype's focus —
// like the paper's — is the MAC module; the RRC module carries the
// mobility-control parameters (handover hysteresis and time-to-trigger,
// the "modify threshold of signal quality for handover initiation"
// example of Table 1) that mobility-manager applications read.
type RRCModule struct {
	mu sync.Mutex
	k  rrcKnobs
}

type rrcKnobs struct {
	// hysteresisDB is the A3-event hysteresis before a handover fires.
	hysteresisDB float64
	// timeToTriggerTTI is how long the A3 condition must hold.
	timeToTriggerTTI int
	// reportIntervalTTI is how long after a MeasReport the agent repeats
	// it while the A3 condition keeps holding (the 3GPP reportInterval):
	// the retry path when a command or completion was lost.
	reportIntervalTTI int
}

// NewRRCModule returns 3GPP-ish defaults (3 dB, 40 ms, 240 ms).
func NewRRCModule() *RRCModule {
	return &RRCModule{k: rrcKnobs{hysteresisDB: 3, timeToTriggerTTI: 40, reportIntervalTTI: 240}}
}

// Name implements Module.
func (*RRCModule) Name() string { return "rrc" }

// InstallVSF implements Module; handover VSFs are not yet delegated in
// this prototype (matching the paper's MAC-focused implementation).
func (*RRCModule) InstallVSF(up *protocol.VSFUpdate) error {
	return fmt.Errorf("agent: rrc module does not accept VSF %q in this prototype", up.VSF)
}

// Reconfigure implements Module.
func (r *RRCModule) Reconfigure(doc *yamlite.Node) (func(), error) {
	if doc == nil || doc.Kind != yamlite.KindMap {
		return nil, fmt.Errorf("agent: rrc policy section must be a map")
	}
	r.mu.Lock()
	k := r.k
	r.mu.Unlock()
	for _, key := range doc.Keys() {
		val := doc.Get(key)
		switch key {
		case "handover_hysteresis_db":
			// A NaN hysteresis would make every A3 comparison false: the
			// cell would silently never report a handover candidate.
			f, err := val.Float()
			if err != nil || !(f >= 0) || math.IsInf(f, 1) {
				return nil, fmt.Errorf("agent: bad hysteresis %q", val.Str())
			}
			k.hysteresisDB = f
		case "time_to_trigger_tti":
			n, err := val.Int()
			if err != nil || n < 0 {
				return nil, fmt.Errorf("agent: bad time_to_trigger %q", val.Str())
			}
			k.timeToTriggerTTI = int(n)
		case "report_interval_tti":
			n, err := val.Int()
			if err != nil || n < 0 {
				return nil, fmt.Errorf("agent: bad report_interval %q", val.Str())
			}
			k.reportIntervalTTI = int(n)
		default:
			return nil, fmt.Errorf("agent: rrc module has no knob %q", key)
		}
	}
	return func() {
		r.mu.Lock()
		r.k = k
		r.mu.Unlock()
	}, nil
}

// Hysteresis returns the configured handover hysteresis in dB.
func (r *RRCModule) Hysteresis() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.k.hysteresisDB
}

// TimeToTrigger returns the configured time-to-trigger in TTIs.
func (r *RRCModule) TimeToTrigger() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.k.timeToTriggerTTI
}

// ReportInterval returns the A3 re-report interval in TTIs (0 disables
// repeats: one report per episode).
func (r *RRCModule) ReportInterval() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.k.reportIntervalTTI
}
