package apps

import (
	"slices"
	"sync"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/metrics"
)

// Monitor is the statistics-monitoring application of §3: it folds the
// controller's event stream into time series other applications (and
// experiments) consume. It exercises both execution patterns of the
// northbound API (§4.4): event-based — a watch subscriber caching the
// latest per-agent aggregate from each stats delta as it arrives, with no
// RIB walk of its own — and periodic, sampling that cache into series on
// the tick.
type Monitor struct {
	// EveryTTI is the sampling period in master cycles.
	EveryTTI int

	mu     sync.Mutex
	last   map[lte.ENBID]float64         // latest aggregate DL rate, kb/s
	rate   map[lte.ENBID]*metrics.Series // aggregate DL rate, kb/s
	events int
}

// MonitorWindow bounds each agent's series to its newest samples, so a
// monitor on a long-running master holds a fixed window (at the default
// period of 100 cycles, the last 102 s) rather than growing forever.
const MonitorWindow = 1024

// NewMonitor builds a monitor sampling every period cycles.
func NewMonitor(period int) *Monitor {
	if period <= 0 {
		period = 100
	}
	return &Monitor{
		EveryTTI: period,
		last:     map[lte.ENBID]float64{},
		rate:     map[lte.ENBID]*metrics.Series{},
	}
}

// Name implements controller.App.
func (*Monitor) Name() string { return "monitor" }

// OnWatch implements controller.WatchApp: stats deltas refresh the cached
// per-agent aggregate, lifecycle events open and close cache entries, and
// UE events are counted (the monitor is the canonical "both periodic and
// event-based" application §4.4 mentions).
func (m *Monitor) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Kind {
	case controller.WatchStats:
		m.last[ev.ENB] = ev.DLKbps
	case controller.WatchHello, controller.WatchUp:
		if _, ok := m.last[ev.ENB]; !ok {
			m.last[ev.ENB] = 0
		}
	case controller.WatchDown:
		delete(m.last, ev.ENB)
	case controller.WatchUE:
		m.events++
	}
}

// OnTick implements controller.TickerApp: the periodic half — sample the
// event-maintained cache into the series.
func (m *Monitor) OnTick(_ *controller.Context, cycle lte.Subframe) {
	if int(cycle)%m.EveryTTI != 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := cycle.Seconds()
	for enbID, kbps := range m.last {
		r := m.rate[enbID]
		if r == nil {
			r = &metrics.Series{}
			m.rate[enbID] = r
		}
		r.Add(t, kbps)
		r.Trim(MonitorWindow)
	}
}

// RateSeries returns a copy of the sampled aggregate DL rate of an agent
// (kb/s), at most MonitorWindow samples, oldest first; nil for an agent
// never sampled.
func (m *Monitor) RateSeries(enb lte.ENBID) *metrics.Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.rate[enb]
	if r == nil {
		return nil
	}
	return &metrics.Series{T: slices.Clone(r.T), V: slices.Clone(r.V)}
}

// Events returns the number of UE events observed on the watch stream.
func (m *Monitor) Events() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}
