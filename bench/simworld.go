package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"flexran"
	"flexran/internal/apps"
	"flexran/internal/northbound"
	"flexran/internal/protocol"
)

// stampApp is an OnTick application that marks a boundary of the master's
// application slot from outside the controller: registered once at the
// highest and once at the lowest priority, the pair splits Sim.Step (or
// Master.Tick) into before / during / after the apps. It is always
// registered, so the traced and untraced runs dispatch the same app list;
// without a tracer it does nothing.
type stampApp struct {
	name string
	tr   **tracer
	// next is the span opened after closing the current one ("" for none).
	next string
}

func (a *stampApp) Name() string { return a.name }

func (a *stampApp) OnTick(*flexran.Context, flexran.Subframe) {
	if tr := *a.tr; tr != nil {
		tr.end()
		if a.next != "" {
			tr.begin(a.next)
		}
	}
}

// registerStamps brackets m's application slot; afterApps names the span
// that runs from the last app to the end of the enclosing call.
func registerStamps(m *flexran.Master, tr **tracer, afterApps string) {
	m.Register(&stampApp{name: "bench-stamp-first", tr: tr, next: "controller.apps"}, math.MaxInt32)
	m.Register(&stampApp{name: "bench-stamp-last", tr: tr, next: afterApps}, math.MinInt32)
}

// nbEndpoints are the northbound GETs ctl-mix cycles through, one every
// nbEvery TTIs. /rib/enb/{id} walks the agents.
var nbEndpoints = [...]struct{ name, path string }{
	{"rib_agents", "/rib/agents"},
	{"rib_enb", "/rib/enb/%d"},
	{"slices", "/slices"},
	{"apps", "/apps"},
	{"health", "/health"},
}

const (
	nbEvery  = 10
	nbENB    = 1 // index of the endpoint that takes an eNodeB id
	nbSlices = 2 // index of the one endpoint that is served by the tick goroutine
)

// simWorld is one of the four Sim-driven workloads after set-up.
type simWorld struct {
	s     *flexran.Sim
	specs []flexran.ENBSpec
	imsis []uint64
	tr    *tracer
	n     int // TTIs run since attach finished
	// dlAtCheckpoint is deliveredDL after checkpointTTIs of warm-up.
	dlAtCheckpoint uint64

	// ctl-mix only.
	nb       *northbound.Server
	watcher  *flexran.Watcher
	broker   *flexran.SliceBroker
	mobility *flexran.MobilityManager
	getNs    [len(nbEndpoints)][]int64
	c        counters
}

// simOptions selects what buildSim puts on top of the specs.
type simOptions struct {
	master      bool
	statsPeriod int // 0 keeps the paper's default of 1
	ctl         bool
	workers     int
	warmTTIs    int
}

// buildSim builds a world, attaches every UE and warms up: everything the
// set-up metric covers.
func buildSim(specs []flexran.ENBSpec, o simOptions) (*simWorld, error) {
	cfg := flexran.SimConfig{Workers: o.workers}
	if o.master {
		mo := flexran.DefaultMasterOptions()
		mo.Workers = o.workers
		if o.statsPeriod > 0 {
			mo.StatsPeriodTTI = o.statsPeriod
		}
		cfg.Master = &mo
	}
	s, err := flexran.NewSim(cfg, specs...)
	if err != nil {
		return nil, err
	}
	w := &simWorld{s: s, specs: specs}
	for _, spec := range specs {
		for _, u := range spec.UEs {
			w.imsis = append(w.imsis, u.IMSI)
		}
	}
	if o.master {
		registerStamps(s.Master, &w.tr, "sim.post_apps")
	}
	if o.ctl {
		if err := w.wireCtl(); err != nil {
			return nil, err
		}
	}
	if !s.WaitAttached(2000) {
		return nil, fmt.Errorf("UEs did not attach within 2000 TTIs")
	}
	if w.broker != nil {
		w.broker.Arm(s.Now())
		s.Master.Register(w.broker, 1500)
	}
	for i := 0; i < o.warmTTIs; i++ {
		if i == checkpointTTIs {
			w.dlAtCheckpoint = w.deliveredDL()
		}
		w.tti()
	}
	return w, nil
}

// checkpointTTIs is how far into every warm-up the delivered downlink
// bytes are recorded: dense-sim and vanilla-sim warm up for different
// lengths, and the transparency check needs them at the same subframe.
const checkpointTTIs = 50

// wireCtl adds the ctl-mix controller load: monitor, load-balanced
// mobility manager, slice broker (registered once attach is over, as the
// scenario engine does), one WatchAll subscriber and the northbound server.
func (w *simWorld) wireCtl() error {
	m := w.s.Master
	specs := ctlSlices()
	shares := make([]float64, len(specs))
	totW := 0.0
	for _, sp := range specs {
		totW += sp.Weight
	}
	for _, sp := range specs {
		shares[sp.Group] = sp.Weight / totW
	}
	for _, n := range w.s.Nodes {
		if err := installSlicer(n.Agent, shares); err != nil {
			return err
		}
	}
	m.Register(apps.NewMonitor(100), 10)
	w.mobility = flexran.NewMobilityManager()
	w.mobility.Policy = flexran.LoadBalanced{LoadWeight: 1.5}
	m.Register(w.mobility, 20)
	b, err := flexran.NewSliceBroker(flexran.SliceBrokerConfig{EpochTTI: 100, Elastic: true}, specs...)
	if err != nil {
		return err
	}
	w.broker = b
	w.nb = northbound.New(m, nil)
	w.nb.AttachSlices(b)
	w.watcher = m.Watch(flexran.WatchFilter{Kinds: flexran.WatchAllEvents}, 4096)
	for i := range w.getNs {
		w.getNs[i] = make([]int64, 0, 1<<14)
	}
	return nil
}

func (w *simWorld) setTracer(tr *tracer) { w.tr = tr }

// tti is one lock-step TTI: Sim.Step completes every phase for every
// eNodeB before returning. ctl-mix adds the reads a controller serves
// beside its writes: a northbound GET every nbEvery TTIs and the watch
// stream drained after every step.
func (w *simWorld) tti() {
	var slices <-chan struct{}
	if w.nb != nil && w.n%nbEvery == 0 {
		slices = w.get(w.n / nbEvery)
	}
	tr := w.tr
	tr.begin("sim.step")
	if w.s.Master != nil {
		tr.begin("sim.pre_apps")
	} else {
		tr.begin("sim.post_apps")
	}
	w.s.Step()
	tr.end()
	tr.end()
	if slices != nil {
		select {
		case <-slices:
		case <-time.After(5 * time.Second):
			// The op missed its tick; nothing will run it now.
			w.c.getsFailed++
		}
	}
	if w.watcher != nil {
		w.drainWatch()
	}
	w.n++
}

func (w *simWorld) drainWatch() {
	for {
		select {
		case _, ok := <-w.watcher.Events():
			if !ok {
				return
			}
			w.c.watchEvents++
		default:
			return
		}
	}
}

// countingWriter is the GET's response sink: status and body size only.
type countingWriter struct {
	h    http.Header
	code int
	n    int64
}

func (c *countingWriter) Header() http.Header  { return c.h }
func (c *countingWriter) WriteHeader(code int) { c.code = code }
func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// queuedContext tells the driver when a handler that defers to the tick
// goroutine has queued its operation. /slices runs its read through
// Master.Do and then waits on the operation and on the request context;
// evaluating that wait calls Done, which happens only after the operation
// is queued — so once Done (or the handler's return) is seen, the next
// Master.Tick is certain to serve it and the lock-step driver cannot
// deadlock or serve it a TTI late.
type queuedContext struct {
	context.Context
	queued chan struct{}
}

func (c *queuedContext) Done() <-chan struct{} {
	select {
	case c.queued <- struct{}{}:
	default:
	}
	return nil
}

// get serves the k-th northbound GET in process, timing handler entry to
// body written. Every endpoint but /slices answers synchronously; /slices
// is answered by the next Master.Tick, so it runs on a helper goroutine
// and get returns a channel the driver waits on after Sim.Step.
func (w *simWorld) get(k int) <-chan struct{} {
	ep := k % len(nbEndpoints)
	path := nbEndpoints[ep].path
	if ep == nbENB {
		path = fmt.Sprintf(path, k/len(nbEndpoints)%len(w.s.Nodes)+1)
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	serve := func() {
		rw := &countingWriter{h: http.Header{}, code: http.StatusOK}
		t0 := time.Now()
		w.nb.ServeHTTP(rw, req)
		w.getNs[ep] = append(w.getNs[ep], int64(time.Since(t0)))
		w.c.gets++
		w.c.bodyBytes += rw.n
		if rw.code != http.StatusOK {
			w.c.getsFailed++
		}
	}
	if ep != nbSlices {
		serve()
		return nil
	}
	ctx := &queuedContext{Context: context.Background(), queued: make(chan struct{}, 1)}
	req = req.WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve()
	}()
	select {
	case <-ctx.queued:
	case <-done:
	}
	return done
}

// check verifies the per-TTI invariants and returns how many are broken:
// every UE still attached where the EPC says it is, and — with a master —
// every agent in the RIB with the world's UE count in total and a
// subframe that keeps advancing.
func (w *simWorld) check() int {
	bad := 0
	for _, imsi := range w.imsis {
		if _, _, ok := w.s.ReportByIMSI(imsi); !ok {
			bad++
		}
	}
	if m := w.s.Master; m != nil {
		rib := m.RIB()
		ues := 0
		for _, n := range w.s.Nodes {
			id := n.ENB.ID()
			ues += rib.UECount(id)
			if sf, ok := rib.AgentSF(id); !ok || sf+8 < w.s.Now() {
				bad++
			}
		}
		if ues != len(w.imsis) {
			bad++
		}
	}
	if w.watcher != nil && w.watcher.Overflowed() {
		bad++
	}
	return bad
}

func (w *simWorld) counters() counters {
	c := w.c
	for _, n := range w.s.Nodes {
		if n.Agent == nil {
			continue
		}
		up, down := n.AgentMeter(), n.MasterMeter()
		c.upBytes += up.TotalBytes()
		c.downBytes += down.TotalBytes()
		for _, cat := range up.Categories() {
			c.upMsgs += up.Messages(cat)
		}
		for _, cat := range down.Categories() {
			c.downMsgs += down.Messages(cat)
		}
		c.reports += up.Messages(protocol.CatStats)
		c.cmds += down.Messages(protocol.CatCommands)
		c.droppedSends += int64(n.Agent.DroppedSends())
	}
	c.handovers = int64(len(w.s.Handovers()))
	if w.broker != nil {
		c.brokerEpochs = int64(w.broker.Epochs)
		c.brokerApplied = int64(w.broker.Applied)
		c.cmdsFailed = int64(w.broker.Lost + w.mobility.Failed())
	}
	if w.watcher != nil && w.watcher.Overflowed() {
		c.watchOverflows = 1
	}
	return c
}

func (w *simWorld) samples() samples {
	s := samples{}
	for ep := range w.getNs {
		s.getNs[ep] = w.getNs[ep]
	}
	return s
}

func (w *simWorld) resetSamples() {
	for ep := range w.getNs {
		w.getNs[ep] = w.getNs[ep][:0]
	}
}

// deliveredDL sums downlink goodput over every UE, wherever it is now.
func (w *simWorld) deliveredDL() uint64 {
	var sum uint64
	for _, imsi := range w.imsis {
		r, _, _ := w.s.ReportByIMSI(imsi)
		sum += r.DLDelivered
	}
	return sum
}

// digest fingerprints the world: per-UE delivered bytes, the handover log,
// the RIB size and the control-message counts. Identical inputs must give
// an identical digest on every run of one commit.
func (w *simWorld) digest() uint64 {
	h := fnv.New64a()
	for _, imsi := range w.imsis {
		r, at, _ := w.s.ReportByIMSI(imsi)
		fmt.Fprintf(h, "%d@%d:%d/%d;", imsi, at, r.DLDelivered, r.DLDropped)
	}
	for _, ho := range w.s.Handovers() {
		fmt.Fprintf(h, "ho%d:%d>%d@%d;", ho.IMSI, ho.From, ho.To, ho.SF)
	}
	c := w.counters()
	size := 0
	if w.s.Master != nil {
		size = w.s.Master.RIB().Size()
	}
	fmt.Fprintf(h, "rib%d up%d/%d down%d/%d watch%d gets%d/%d", size,
		c.upMsgs, c.upBytes, c.downMsgs, c.downBytes, c.watchEvents, c.gets, c.bodyBytes)
	return h.Sum64()
}

// probeTarget picks the first eNodeB that carries downlink traffic and
// brings its clock up to the simulation's (it may have been asleep).
func (w *simWorld) probeTarget() (*flexran.ENB, []flexran.UESpec, *flexran.EPC, *flexran.Agent) {
	for i, spec := range w.specs {
		for _, u := range spec.UEs {
			if u.DL != nil {
				w.s.ReportByIMSI(u.IMSI)
				n := w.s.Nodes[i]
				return n.ENB, spec.UEs, w.s.EPC, n.Agent
			}
		}
	}
	return nil, nil, nil, nil
}

func (w *simWorld) close() {
	if w.watcher != nil {
		w.watcher.Cancel()
	}
}
