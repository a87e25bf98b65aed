package controller_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/protocol"
)

func TestDeregisterRemovesApp(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	ticksA, ticksB := 0, 0
	m.Register(appFunc{name: "a", fn: func(*controller.Context, lte.Subframe) { ticksA++ }}, 10)
	m.Register(appFunc{name: "b", fn: func(*controller.Context, lte.Subframe) { ticksB++ }}, 5)
	m.Tick()
	if !m.Deregister("a") {
		t.Fatal("Deregister(a) = false")
	}
	if m.Deregister("a") {
		t.Error("second Deregister(a) = true")
	}
	m.Tick()
	if ticksA != 1 || ticksB != 2 {
		t.Errorf("ticks after deregister: a=%d b=%d, want 1/2", ticksA, ticksB)
	}
	if apps := m.Apps(); len(apps) != 1 || apps[0] != "b" {
		t.Errorf("Apps() = %v", apps)
	}
}

func TestRegisterOrdersByPriority(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	var order []string
	mk := func(name string) controller.App {
		return appFunc{name: name, fn: func(*controller.Context, lte.Subframe) {
			order = append(order, name)
		}}
	}
	m.Register(mk("low"), 1)
	m.Register(mk("high"), 100)
	m.Register(mk("mid"), 50)
	m.Tick()
	if len(order) != 3 || order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Errorf("dispatch order = %v", order)
	}
}

// retunable exposes a mutable knob for the Retune test.
type retunable struct {
	appFunc
	knob int
}

func TestRetuneAppliedOnTickGoroutine(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	app := &retunable{appFunc: appFunc{name: "tunable", fn: func(*controller.Context, lte.Subframe) {}}}
	m.Register(app, 0)

	if err := m.Retune("absent", func(controller.App) {}); err == nil {
		t.Error("Retune of unknown app accepted")
	}
	err := m.Retune("tunable", func(a controller.App) { a.(*retunable).knob = 42 })
	if err != nil {
		t.Fatal(err)
	}
	if app.knob != 0 {
		t.Error("retune applied before the tick (should run in the app slot)")
	}
	m.Tick()
	if app.knob != 42 {
		t.Errorf("knob = %d after tick, want 42", app.knob)
	}
}

func TestDoRunsInAppSlot(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	var opCycle, appCycle lte.Subframe
	m.Register(appFunc{name: "probe", fn: func(_ *controller.Context, sf lte.Subframe) {
		appCycle = sf
	}}, 0)
	done := m.Do(func(ctx *controller.Context) { opCycle = ctx.Now })
	select {
	case <-done:
		t.Fatal("op ran before the tick")
	default:
	}
	m.Tick()
	select {
	case <-done:
	default:
		t.Fatal("op did not complete with the tick")
	}
	// The op runs in the same application slot as the apps, on the same
	// cycle value.
	if opCycle != appCycle {
		t.Errorf("op observed cycle %d, apps observed %d", opCycle, appCycle)
	}
}

// panicker blows up on its first tick.
type panicker struct{ calls int }

func (*panicker) Name() string { return "panicker" }
func (p *panicker) OnTick(*controller.Context, lte.Subframe) {
	p.calls++
	if p.calls == 1 {
		panic("first tick")
	}
}

func TestAppPanicIsContainedAndCounted(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	survivor := 0
	m.Register(&panicker{}, 10)
	m.Register(appFunc{name: "survivor", fn: func(*controller.Context, lte.Subframe) { survivor++ }}, 0)
	m.Tick()
	m.Tick()
	if survivor != 2 {
		t.Errorf("survivor ticked %d times, want 2 (panic leaked?)", survivor)
	}
	infos := m.AppInfos()
	if len(infos) != 2 {
		t.Fatalf("AppInfos() = %+v", infos)
	}
	var p controller.AppInfo
	for _, in := range infos {
		if in.Name == "panicker" {
			p = in
		}
	}
	if p.Errors != 1 {
		t.Errorf("panicker errors = %d, want 1", p.Errors)
	}
	if p.Events != 2 {
		t.Errorf("panicker events = %d, want 2 dispatched ticks", p.Events)
	}
}

func TestDoPanicStillClosesDone(t *testing.T) {
	m := controller.NewMaster(controller.DefaultOptions())
	done := m.Do(func(*controller.Context) { panic("op") })
	after := 0
	doneOK := m.Do(func(*controller.Context) { after++ })
	m.Tick()
	select {
	case <-done:
	default:
		t.Error("panicking op left its done channel open")
	}
	select {
	case <-doneOK:
	default:
		t.Error("op queued after the panicking one never ran")
	}
	if after != 1 {
		t.Errorf("second op ran %d times", after)
	}
}

// orderApp logs every callback it receives into a log shared with the
// other apps of the test, and panics inside OnWatch at one chosen event.
type orderApp struct {
	name       string
	log        *[]string
	panicAtSeq uint64
}

func (a *orderApp) Name() string { return a.name }
func (a *orderApp) OnWatch(_ *controller.Context, ev controller.WatchEvent) {
	*a.log = append(*a.log, fmt.Sprintf("%s:%v#%d", a.name, ev.Kind, ev.Seq))
	if ev.Seq == a.panicAtSeq {
		panic("bad event")
	}
}
func (a *orderApp) OnTick(_ *controller.Context, cycle lte.Subframe) {
	*a.log = append(*a.log, fmt.Sprintf("%s:tick@%d", a.name, cycle))
}

// TestDispatchOrderingContract pins the one delivery path: per app in
// priority order, the cycle's events in Seq order and then OnTick; a panic
// in OnWatch costs that app the rest of its cycle (later events and the
// tick) and nothing else; every dispatched callback — the panicking one
// included — counts in AppInfo.Events, every recovered panic in Errors.
func TestDispatchOrderingContract(t *testing.T) {
	m, sess := scripted(controller.DefaultOptions(), 7)
	var log []string
	m.Register(&orderApp{name: "low", log: &log}, 1)
	m.Register(&orderApp{name: "high", log: &log, panicAtSeq: 2}, 9)

	sess[7].Deliver(hello(7, 0)) // seq 1
	m.Tick()
	sess[7].Deliver( // seq 2, 3
		statsReply(7, 1, protocol.UEStats{RNTI: 70}),
		protocol.New(7, 1, &protocol.UEEvent{Type: protocol.UEEventAttach, RNTI: 70}),
	)
	m.Tick()
	sess[7].Deliver(statsReply(7, 2, protocol.UEStats{RNTI: 70})) // seq 4
	m.Tick()

	want := []string{
		"high:hello#1", "high:tick@0", "low:hello#1", "low:tick@0",
		"high:stats#2" /* panics: no ue#3, no tick */, "low:stats#2", "low:ue#3", "low:tick@1",
		"high:stats#4", "high:tick@2", "low:stats#4", "low:tick@2",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("dispatch order:\n got %v\nwant %v", log, want)
	}
	wantInfos := []controller.AppInfo{
		{Name: "high", Priority: 9, Events: 5, Errors: 1},
		{Name: "low", Priority: 1, Events: 7, Errors: 0},
	}
	if infos := m.AppInfos(); !reflect.DeepEqual(infos, wantInfos) {
		t.Errorf("AppInfos() = %+v, want %+v", infos, wantInfos)
	}
}
