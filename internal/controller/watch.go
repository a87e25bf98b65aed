package controller

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// The watch layer is the controller's one notification path. It turns the
// RIB Updater's mutations into a typed, sequenced delta stream: every
// applied Hello, resync, stats report, UE event, measurement report,
// handover completion, liveness transition, health transition and
// reliable-delivery failure becomes one WatchEvent. Consumers — northbound
// watchers (Master.Watch) and in-process applications (WatchApp) — get
// incremental deltas instead of polling snapshots.
//
// The updater appends each session's events to the session's own
// recording, and Tick then merges the recordings in session attach order,
// assigns sequence numbers and publishes. The stream is therefore
// deterministic — same events, same order, same sequence numbers — and
// the whole layer is atomically gated:
// with no watcher and no WatchApp registered, the hot path pays one atomic
// load per message and appends nothing.

// WatchKind classifies one RIB delta; kinds are bits so a WatchFilter can
// select any subset.
type WatchKind uint16

const (
	// WatchHello: an agent (re)connected and its shard was rebuilt from
	// the Hello's configuration.
	WatchHello WatchKind = 1 << iota
	// WatchUp: a reconnected agent's StateSnapshot was absorbed — the RIB
	// shard is authoritative again.
	WatchUp
	// WatchDown: the agent's session closed (transport death or
	// heartbeat-miss disconnect) or was displaced by a reconnecting
	// agent's newer epoch. Apps holding per-agent in-flight state
	// reconcile on it.
	WatchDown
	// WatchStats: a statistics report was applied; the event carries the
	// report's UE count and aggregate DL rate.
	WatchStats
	// WatchUE: a UE attach/detach/random-access event was applied.
	WatchUE
	// WatchMeas: an A3 measurement report was applied; ENB is the serving
	// (reporting) agent and Payload the *protocol.MeasReport.
	WatchMeas
	// WatchHandover: a handover completion was applied; ENB is the target
	// agent that admitted the UE and Payload the
	// *protocol.HandoverComplete.
	WatchHandover
	// WatchHealth: the health monitor changed an agent's grade — every
	// downgrade, every partial recovery to a still-unhealthy grade, and
	// the recovery to Healthy once it held for the recovery window.
	WatchHealth
	// WatchSlice: a slice broker published a slice transition — an
	// admission decision or a violation-state change (see EmitSliceEvent).
	WatchSlice
	// WatchCmdFailed: a sequenced command exhausted its retransmission
	// budget, or its session closed with the command unacknowledged.
	// CmdSeq is the sequence number the issuing call returned — apps
	// correlate by keeping that return value — and Payload the command as
	// passed to the issuing Send (never pooled; safe to retain).
	WatchCmdFailed

	// WatchAll selects every kind (the zero filter behaves identically).
	WatchAll = WatchHello | WatchUp | WatchDown | WatchStats | WatchUE |
		WatchMeas | WatchHandover | WatchHealth | WatchSlice | WatchCmdFailed
)

// watchKindNames orders the kind names by bit position.
var watchKindNames = []string{
	"hello", "up", "down", "stats", "ue", "meas", "handover", "health",
	"slice", "cmd_failed",
}

// String names a single kind, or a comma-joined list for a mask.
func (k WatchKind) String() string {
	var parts []string
	for i, name := range watchKindNames {
		if k&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// MarshalJSON renders the kind as its name, so northbound consumers see
// "stats" rather than a bitmask value.
func (k WatchKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the name form emitted by MarshalJSON.
func (k *WatchKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s == "none" {
		*k = 0
		return nil
	}
	parsed, err := ParseWatchKinds(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseWatchKinds parses a comma-separated kind list ("stats,ue") into a
// mask. An empty string means every kind.
func ParseWatchKinds(s string) (WatchKind, error) {
	if s == "" {
		return WatchAll, nil
	}
	var k WatchKind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for i, name := range watchKindNames {
			if part == name {
				k |= 1 << i
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("controller: unknown watch kind %q", part)
		}
	}
	return k, nil
}

// WatchEvent is one sequenced RIB delta. Seq is assigned serially at
// publish time and is gap-free over the full stream (a filtered watcher
// sees gaps where its filter dropped events — that is how a consumer can
// tell filtering from loss). Cycle is the master cycle that published the
// event. The remaining fields are kind-dependent; unrelated fields are
// zero.
type WatchEvent struct {
	Seq   uint64       `json:"seq"`
	Cycle lte.Subframe `json:"cycle"`
	Kind  WatchKind    `json:"kind"`
	ENB   lte.ENBID    `json:"enb"`
	// SF is the agent subframe stamped on the triggering message
	// (stats/ue/meas/handover kinds).
	SF   lte.Subframe `json:"sf,omitempty"`
	Cell lte.CellID   `json:"cell,omitempty"`
	RNTI lte.RNTI     `json:"rnti,omitempty"`
	// UEType is the UE event type (ue kind).
	UEType protocol.UEEventType `json:"ue_type,omitempty"`
	// Health is the new grade (health kind; zero = healthy elsewhere).
	Health HealthState `json:"health"`
	// UEs and DLKbps summarize an applied stats report (stats kind): the
	// report's UE count and its aggregate downlink rate.
	UEs    int     `json:"ues,omitempty"`
	DLKbps float64 `json:"dl_kbps,omitempty"`
	// Slice, Decision and Attainment describe a slice transition (slice
	// kind): the slice's name, its admission state, and its measured SLA
	// attainment when the event was published.
	Slice      string  `json:"slice,omitempty"`
	Decision   string  `json:"decision,omitempty"`
	Attainment float64 `json:"attainment,omitempty"`
	// CmdSeq is the failed command's sequence number (cmd_failed kind).
	CmdSeq uint64 `json:"cmd_seq,omitempty"`
	// Payload is the protocol message behind the event, for in-process
	// consumers: the *protocol.MeasReport (meas kind), the
	// *protocol.HandoverComplete (handover kind), the failed command
	// (cmd_failed kind); nil elsewhere. Read-only — every consumer of the
	// stream shares the one value.
	Payload protocol.Payload `json:"-"`
}

// WatchFilter selects a subset of the stream: ENB 0 matches every agent,
// Kinds 0 matches every kind.
type WatchFilter struct {
	ENB   lte.ENBID `json:"enb"`
	Kinds WatchKind `json:"kinds"`
}

// match reports whether an event passes the filter.
func (f WatchFilter) match(ev *WatchEvent) bool {
	if f.ENB != 0 && ev.ENB != f.ENB {
		return false
	}
	if f.Kinds != 0 && f.Kinds&ev.Kind == 0 {
		return false
	}
	return true
}

// WatchApp is the event-based execution pattern: OnWatch is called once
// per published event, in stream order, in the application slot of the
// cycle that published it and before the app's own OnTick. In-process apps
// consume the same stream a northbound watcher does, synchronously and
// therefore deterministically.
type WatchApp interface {
	App
	OnWatch(ctx *Context, ev WatchEvent)
}

// Watcher is one bounded subscription on the master's event stream.
// Events are delivered on a buffered channel filled during Tick's serial
// publish phase; the consumer drains at its own pace. If the buffer is
// full when an event must be delivered, the watcher has fallen too far
// behind to ever see a complete stream again: it is marked overflowed and
// its channel is closed after the buffered events (Kubernetes-style
// "watch too old"). The consumer drains what remains, sees the close,
// checks Overflowed, re-reads the RIB snapshot and re-subscribes.
type Watcher struct {
	hub        *watchHub
	filter     WatchFilter
	ch         chan WatchEvent
	overflowed atomic.Bool
	closed     bool // guarded by hub.mu
}

// Events is the delivery channel. It is closed by Cancel or by an
// overflow; buffered events remain readable after the close.
func (w *Watcher) Events() <-chan WatchEvent { return w.ch }

// Overflowed reports whether the subscription was terminated because the
// consumer fell behind (the resync signal).
func (w *Watcher) Overflowed() bool { return w.overflowed.Load() }

// Cancel ends the subscription and closes the channel. Idempotent.
func (w *Watcher) Cancel() { w.hub.remove(w) }

// watchHub fans the published stream out to subscribers. users counts
// every consumer — watchers plus registered WatchApps — and gates event
// recording on the hot path: updaters check it with one atomic load and
// record nothing while it is zero.
type watchHub struct {
	users atomic.Int32
	mu    sync.Mutex
	subs  []*Watcher
}

// active reports whether any consumer is subscribed (lock-free; called
// per-message on the updater hot path).
func (h *watchHub) active() bool { return h.users.Load() > 0 }

// add registers a watcher.
func (h *watchHub) add(w *Watcher) {
	h.mu.Lock()
	h.subs = append(h.subs, w)
	h.mu.Unlock()
	h.users.Add(1)
}

// remove cancels a watcher (no-op if already gone).
func (h *watchHub) remove(w *Watcher) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	close(w.ch)
	for i, s := range h.subs {
		if s == w {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			break
		}
	}
	h.users.Add(-1)
}

// publish delivers a batch to every matching subscriber. Called only from
// Tick's serial phase. A subscriber whose buffer is full is overflowed:
// marked, closed and dropped — never blocked on, so a stuck northbound
// client cannot stall the control loop.
func (h *watchHub) publish(evs []WatchEvent) {
	if len(evs) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < len(h.subs); i++ {
		w := h.subs[i]
		for j := range evs {
			if !w.filter.match(&evs[j]) {
				continue
			}
			if w.deliver(evs[j]) {
				continue
			}
			// Buffer full: the consumer can never see a complete stream
			// again. Terminate the subscription (resync signal).
			w.overflowed.Store(true)
			w.closed = true
			close(w.ch)
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			h.users.Add(-1)
			i--
			break
		}
	}
}

// deliver attempts a non-blocking send.
func (w *Watcher) deliver(ev WatchEvent) bool {
	select {
	case w.ch <- ev:
		return true
	default:
		return false
	}
}

// defaultWatchBuffer is the per-watcher channel capacity when the caller
// passes buffer <= 0.
const defaultWatchBuffer = 256

// Watch subscribes to the master's RIB delta stream. The subscription
// starts delivering with the next full cycle (events already half-recorded
// this cycle may be missed — read the RIB after subscribing to anchor).
// buffer bounds the delivery channel (<= 0 selects the default of 256); a
// consumer that falls more than buffer events behind is overflowed — see
// Watcher. Safe to call from any goroutine.
func (m *Master) Watch(filter WatchFilter, buffer int) *Watcher {
	if buffer <= 0 {
		buffer = defaultWatchBuffer
	}
	w := &Watcher{hub: &m.watch, filter: filter, ch: make(chan WatchEvent, buffer)}
	m.watch.add(w)
	return w
}

// emitWatch is Tick's serial publish phase: it concatenates this cycle's
// deltas in the deterministic stream order — sessions closed before the
// updater ran, then each session's recorded events in attach order,
// then sessions closed after the updater (heartbeat closes), then health
// transitions, then delivery failures, then slice transitions queued
// during the previous application slot — assigns gap-free sequence
// numbers, and fans the batch out to watchers. The merged slice is reused
// scratch, returned for the in-process WatchApp dispatch.
func (m *Master) emitWatch(prior []lte.ENBID, sessions []*session, post []lte.ENBID,
	health []WatchEvent, fails []cmdFailure, slices []WatchEvent) []WatchEvent {
	evs := m.watchScratch[:0]
	for _, enb := range prior {
		evs = append(evs, WatchEvent{Kind: WatchDown, ENB: enb})
	}
	for _, s := range sessions {
		evs = append(evs, s.watch...)
	}
	for _, enb := range post {
		evs = append(evs, WatchEvent{Kind: WatchDown, ENB: enb})
	}
	evs = append(evs, health...)
	for _, cf := range fails {
		evs = append(evs, WatchEvent{
			Kind: WatchCmdFailed, ENB: cf.enb, CmdSeq: cf.seq, Payload: cf.payload,
		})
	}
	evs = append(evs, slices...)
	for i := range evs {
		m.watchSeq++
		evs[i].Seq = m.watchSeq
		evs[i].Cycle = m.cycle
	}
	m.watchScratch = evs
	m.watch.publish(evs)
	return evs
}

// EmitSliceEvent queues one slice-kind event for the watch stream — how a
// slice broker (or any app running admission control) publishes admission
// decisions and violation-state changes. Routing them through the stream
// rather than app-to-app calls keeps the delivery order deterministic and
// lets apps, northbound watchers and tests observe admission without
// coupling to the broker. The Kind is forced to WatchSlice, and Seq/Cycle
// are assigned when the next cycle's serial publish phase merges the event
// after that cycle's RIB deltas. Dropped when nothing is watching, like
// every other recording.
func (c *Context) EmitSliceEvent(ev WatchEvent) {
	m := c.master
	if !m.watch.active() {
		return
	}
	ev.Kind = WatchSlice
	m.mu.Lock()
	m.pendingSliceWatch = append(m.pendingSliceWatch, ev)
	m.mu.Unlock()
}
