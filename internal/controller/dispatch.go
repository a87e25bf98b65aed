package controller

import (
	"sort"
	"sync/atomic"
)

// The app registry and the single dispatch mechanism. The two execution
// patterns of §4.4 — event-based (WatchApp) and periodic (TickerApp) —
// are dispatched by dispatchTo from one registry walk per cycle, in
// priority order, with per-app event/error counters and panic
// containment. Apps can be registered at runtime and join at the next
// cycle boundary (the tick snapshots the registry), so in-tick delivery
// order stays deterministic; app state is changed off-loop through Do.

// appEntry is one registered application. events and errors are atomic so
// AppInfos can read them while a tick is dispatching.
type appEntry struct {
	app      App
	name     string
	priority int
	order    int // registration order breaks priority ties
	events   atomic.Uint64
	errors   atomic.Uint64
}

// AppInfo is one registry row: the app's execution-order position is its
// index in the AppInfos result.
type AppInfo struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	// Events counts dispatched callbacks (ticks included); Errors counts
	// recovered panics.
	Events uint64 `json:"events"`
	Errors uint64 `json:"errors"`
}

// Register adds an application with a priority (higher runs earlier in
// the cycle — e.g. a centralized scheduler above a monitoring app).
// It implements the Registry Service of the northbound API. Registering
// mid-run is safe; the app joins at the next cycle.
func (m *Master) Register(app App, priority int) {
	e := &appEntry{app: app, name: app.Name(), priority: priority}
	m.mu.Lock()
	defer m.mu.Unlock()
	e.order = m.nextApp
	m.nextApp++
	m.apps = append(m.apps, e)
	sort.SliceStable(m.apps, func(i, j int) bool {
		if m.apps[i].priority != m.apps[j].priority {
			return m.apps[i].priority > m.apps[j].priority
		}
		return m.apps[i].order < m.apps[j].order
	})
	if _, ok := app.(WatchApp); ok {
		m.watch.users.Add(1)
	}
}

// Apps lists registered application names in execution order.
func (m *Master) Apps() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.apps))
	for i, e := range m.apps {
		out[i] = e.name
	}
	return out
}

// AppInfos lists the registry with live dispatch counters, in execution
// order. Safe to call from any goroutine (the northbound /apps endpoint).
func (m *Master) AppInfos() []AppInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]AppInfo, len(m.apps))
	for i, e := range m.apps {
		out[i] = AppInfo{
			Name:     e.name,
			Priority: e.priority,
			Events:   e.events.Load(),
			Errors:   e.errors.Load(),
		}
	}
	return out
}

// masterOp is one queued operation to run on the tick goroutine.
type masterOp struct {
	fn   func(*Context)
	done chan struct{}
}

// Do queues fn to run on the master's tick goroutine at the start of the
// next application slot, with a live northbound Context, and returns a
// channel closed when it has run. This is how off-loop callers (the
// northbound HTTP server, runtime retunes) actuate safely: command
// sequencing stays serial and deterministic, and nothing races the
// updater. A panic inside fn is contained (the channel still closes).
func (m *Master) Do(fn func(*Context)) <-chan struct{} {
	op := masterOp{fn: fn, done: make(chan struct{})}
	m.mu.Lock()
	m.pendingOps = append(m.pendingOps, op)
	m.mu.Unlock()
	return op.done
}

// runOps executes the queued operations in submission order. Serial phase
// of Tick only.
func (m *Master) runOps(ctx *Context, ops []masterOp) {
	for _, op := range ops {
		runOp(ctx, op)
	}
}

// runOp runs one operation with panic containment: a buggy northbound
// handler must not take down the control loop.
func runOp(ctx *Context, op masterOp) {
	defer close(op.done)
	defer func() {
		_ = recover()
	}()
	op.fn(ctx)
}

// dispatchTo delivers one cycle to one app: every event the cycle
// published, in stream order, then the periodic tick — so an app never
// ticks on per-agent state (liveness, health, in-flight commands) the
// cycle's events have already invalidated. Callbacks are counted and
// panics contained: a panicking app loses the rest of its cycle (errors
// counter incremented) but never takes down the loop or starves the apps
// after it.
func (m *Master) dispatchTo(ctx *Context, e *appEntry, evs []WatchEvent) {
	// Counting rides the defer so a panicking callback is still counted as
	// dispatched (its Events row then explains the Errors row).
	n := uint64(0)
	defer func() {
		if r := recover(); r != nil {
			e.errors.Add(1)
		}
		if n != 0 {
			e.events.Add(n)
		}
	}()
	if wApp, ok := e.app.(WatchApp); ok {
		for i := range evs {
			n++
			wApp.OnWatch(ctx, evs[i])
		}
	}
	if ticker, ok := e.app.(TickerApp); ok {
		n++
		ticker.OnTick(ctx, m.cycle)
	}
}
