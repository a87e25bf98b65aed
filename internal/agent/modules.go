package agent

import (
	"sync"

	"flexran/internal/yamlite"
)

// The agent's control modules (the paper's Control Module Interface,
// §4.3.1) are MACModule, MgmtModule and RRCModule. A module's section of a
// policy document is a yamlite field table (mgmtTable, rrcTable, macTable)
// that Agent.Reconfigure decodes into a scratch copy of the module's knobs;
// only the MAC module has VSF slots.

// knobs is a module's knob set under its lock.
type knobs[T any] struct {
	mu sync.Mutex
	v  T
}

func (k *knobs[T]) get() T {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.v
}

func (k *knobs[T]) set(v T) {
	k.mu.Lock()
	k.v = v
	k.mu.Unlock()
}

// MgmtModule is the agent-management control module: it owns the knobs of
// the agent runtime itself — master-agent subframe synchronization and UE
// event forwarding. The master reconfigures it like any other module:
//
//	agent:
//	  sync_period: 1      # SubframeTrigger every TTI (0 disables)
//	  forward_events: yes
type MgmtModule struct {
	k knobs[mgmtKnobs]
}

type mgmtKnobs struct {
	syncPeriod    int
	forwardEvents bool
}

// NewMgmtModule returns the module with sync off and event forwarding on.
func NewMgmtModule() *MgmtModule {
	m := &MgmtModule{}
	m.k.v = mgmtKnobs{forwardEvents: true}
	return m
}

// mgmtTable is the "agent:" policy section's field table.
func mgmtTable(k *mgmtKnobs) []yamlite.Field {
	return []yamlite.Field{
		{Key: "sync_period", Value: yamlite.NonNegInt(&k.syncPeriod)},
		{Key: "forward_events", Value: yamlite.Boolean(&k.forwardEvents)},
	}
}

// SyncPeriod returns the SubframeTrigger period (0 = disabled).
func (m *MgmtModule) SyncPeriod() int { return m.k.get().syncPeriod }

// ForwardEvents reports whether UE events are relayed to the master.
func (m *MgmtModule) ForwardEvents() bool { return m.k.get().forwardEvents }

// RRCModule is the radio-resource-control module. The prototype's focus —
// like the paper's — is the MAC module; the RRC module carries the
// mobility-control parameters (handover hysteresis and time-to-trigger,
// the "modify threshold of signal quality for handover initiation"
// example of Table 1) that mobility-manager applications read.
type RRCModule struct {
	k knobs[rrcKnobs]
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
	r := &RRCModule{}
	r.k.v = rrcKnobs{hysteresisDB: 3, timeToTriggerTTI: 40, reportIntervalTTI: 240}
	return r
}

// rrcTable is the "rrc:" policy section's field table.
func rrcTable(k *rrcKnobs) []yamlite.Field {
	return []yamlite.Field{
		// A NaN hysteresis would make every A3 comparison false: the cell
		// would silently never report a handover candidate. NonNegNum
		// refuses it, and infinities, with every negative.
		{Key: "handover_hysteresis_db", Value: yamlite.NonNegNum(&k.hysteresisDB)},
		{Key: "time_to_trigger_tti", Value: yamlite.NonNegInt(&k.timeToTriggerTTI)},
		{Key: "report_interval_tti", Value: yamlite.NonNegInt(&k.reportIntervalTTI)},
	}
}

// Hysteresis returns the configured handover hysteresis in dB.
func (r *RRCModule) Hysteresis() float64 { return r.k.get().hysteresisDB }

// TimeToTrigger returns the configured time-to-trigger in TTIs.
func (r *RRCModule) TimeToTrigger() int { return r.k.get().timeToTriggerTTI }

// ReportInterval returns the A3 re-report interval in TTIs (0 disables
// repeats: one report per episode).
func (r *RRCModule) ReportInterval() int { return r.k.get().reportIntervalTTI }
