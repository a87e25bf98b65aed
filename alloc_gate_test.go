package flexran_test

// Allocation-regression gates. Each gate measures a steady-state hot-loop
// operation with testing.AllocsPerRun and fails the build if it allocates
// more than its budget, so a change cannot silently regress a fast path:
//
//   - encode+decode round trip of a 32-UE StatsReply (pooled codec), and
//     the encode alone
//   - one agent report TTI (snapshot -> report build -> emit)
//   - one A3 measurement period of geo-channel UEs (sweep -> A3 entry test)
//   - one framed Conn send (coalesced single-write framing)
//   - one TTI of the master-less 64 x 32 world (TestAllocGateVanillaTTI)
//   - a remote-scheduler master cycle over a warmed RIB
//   - the platform operations of TestAllocGateBudgets: VSF swap, DSL
//     evaluation, batched send, eNodeB step, IMSI lookup, fresh-buffer
//     encode, and full-platform, sparse-scale and handover TTIs
//
// allocs/op is host-independent, so these are the hard performance gate;
// times are measured by the bench/ module. The measured value at gate time
// is recorded next to each budget.

import (
	"math/rand"
	"net"
	"testing"

	"flexran"
	"flexran/internal/agent"
	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/transport"
	"flexran/internal/vsfdsl"
)

// skipUnderRace skips an allocation gate when the race detector is on:
// -race randomizes sync.Pool caching (dropping pooled items to expose
// races), so allocation counts are not meaningful there. The gates run in
// the plain `go test ./...` tier-1 pass, which CI executes via -race AND
// the plain build/test steps — regressions still fail CI.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race (sync.Pool caching is randomized)")
	}
}

// gateStatsReply builds an n-UE full report like the ones agents emit per
// TTI (subband CQIs and per-LC queue reports included).
func gateStatsReply(n int) *protocol.StatsReply {
	rep := &protocol.StatsReply{ID: 1, SF: 1000}
	for i := 0; i < n; i++ {
		rep.UEs.Append(gateUERow(i))
	}
	rep.Cells = []protocol.CellStats{{Cell: 0, UsedPRB: 40, TotalPRB: 50}}
	return rep
}

// gateUERow is the row an eNodeB reports for a CQI-12 UE with 15 kB queued
// and a 9 Mb/s served rate: 13 subband CQIs rippling around the wideband
// one, three logical channels, L3 measurements.
func gateUERow(i int) *protocol.UEStats {
	s := &protocol.UEStats{
		RNTI: lte.RNTI(0x46 + i), CQI: 12, DLQueue: 15000, DLRateKbps: 9000,
		PowerHeadroomDB: 16, RSRPdBm: -68, RSRQdB: -8,
		LCs: []protocol.LCReport{{LCID: 1}, {LCID: 2}, {LCID: 3, Bytes: 15000, HoLDelayMs: 13}},
	}
	for sb := 0; sb < enb.SubbandsAt10MHz; sb++ {
		s.SubbandCQI = append(s.SubbandCQI, uint8(12+(int(s.RNTI)+sb*7)%3-1))
	}
	return s
}

// newPipeConn builds a transport.Conn over an in-memory pipe whose peer
// drains everything written.
func newPipeConn(tb testing.TB) *transport.Conn {
	tb.Helper()
	local, peer := net.Pipe()
	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	c := transport.NewConn(local, 16)
	tb.Cleanup(func() {
		c.Close()
		peer.Close()
	})
	return c
}

// TestAllocGateMessageRoundTrip gates the pooled codec: serializing one
// 32-UE StatsReply into a reused buffer and decoding it through the free
// lists must not allocate at steady state. (Measured: 0 allocs/op.)
func TestAllocGateMessageRoundTrip(t *testing.T) {
	skipUnderRace(t)
	const budget = 0
	msg := protocol.New(1, 1000, gateStatsReply(32))
	var buf []byte
	op := func() {
		buf = protocol.AppendMessage(buf[:0], msg)
		m, err := protocol.DecodePooled(buf)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	for i := 0; i < 100; i++ {
		op() // warm the pools and grow every scratch buffer
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("32-UE StatsReply round trip: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocGateStatsReplyEncode gates the encode half on its own: the
// 32-UE report serialized into a reused buffer, every packed column
// reserved in that buffer's capacity. (Measured: 0 allocs/op.)
func TestAllocGateStatsReplyEncode(t *testing.T) {
	skipUnderRace(t)
	const budget = 0
	msg := protocol.New(1, 1000, gateStatsReply(32))
	var buf []byte
	op := func() { buf = protocol.AppendMessage(buf[:0], msg) }
	for i := 0; i < 100; i++ {
		op() // grow the buffer to the report's size
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("32-UE StatsReply encode: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocGateAgentReportTTI gates the report fast path: one data-plane
// TTI of a 16-UE eNodeB with a per-TTI full-stats subscription — the lanes
// written straight into the subscription's table, and the emit. The one
// remaining allocation is the message envelope (a sender may retain it);
// the local scheduler's working set now lives on the scheduler. (Measured:
// 1 alloc/op.)
func TestAllocGateAgentReportTTI(t *testing.T) {
	skipUnderRace(t)
	const budget = 1
	op := agentReportTTIOp(t)
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("agent report TTI: %.1f allocs/op, budget %d", got, budget)
	}
}

// agentReportTTIOp steps one TTI of a 16-UE eNodeB whose agent holds a
// per-TTI full-stats subscription, after the attach and 200 warm-up TTIs.
func agentReportTTIOp(tb testing.TB) func() {
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	a := agent.New(e, agent.Options{})
	a.Connect(func(m *protocol.Message) error { return nil })
	rntis := make([]lte.RNTI, 0, 16)
	for i := 0; i < 16; i++ {
		rnti, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Cell: 0, Channel: radio.Fixed(12)})
		if err != nil {
			tb.Fatal(err)
		}
		rntis = append(rntis, rnti)
	}
	a.Deliver(protocol.New(1, 0, &protocol.StatsRequest{
		ID: 1, Mode: protocol.StatsPeriodic, PeriodTTI: 1, Flags: protocol.StatsAll,
	}))
	op := func() {
		for _, r := range rntis {
			e.DLEnqueue(r, 3000)
		}
		e.Step()
	}
	for i := 0; i < 200; i++ {
		op() // complete attach and warm all per-TTI scratch
	}
	return op
}

// TestAllocGateMeasurementSweep gates the A3 measurement path: the ten
// subframes of one measurement period of a 12-UE eNodeB whose walkers' geo
// channels stay near their serving site, with a welcomed agent evaluating
// A3 on every sweep and no report firing. The sweep reads RSRP into the eNodeB's
// reused neighbour list and the agent's entry test scans it in place.
// (Measured: 0 allocs/op.)
func TestAllocGateMeasurementSweep(t *testing.T) {
	skipUnderRace(t)
	var sites []radio.Site
	for i := 0; i < 16; i++ {
		sites = append(sites, radio.Site{ENB: lte.ENBID(i + 1), Tx: radio.Transmitter{
			Pos: radio.Point{X: float64(i%4) * 900, Y: float64(i/4) * 900}, PowerDBm: 43,
		}})
	}
	m := radio.NewMap(sites...)
	e := enb.New(enb.Config{ID: 6, Seed: 1})
	a := agent.New(e, agent.Options{})
	var reports int
	a.Connect(func(msg *protocol.Message) error {
		if msg.Payload.Kind() == protocol.KindMeasReport {
			reports++
		}
		return nil
	})
	a.Deliver(protocol.New(6, 0, &protocol.HelloAck{Version: protocol.ProtocolVersion, Epoch: a.Epoch()}))
	sweeps := 0
	for i := 0; i < 12; i++ {
		// Site 6 is at (900, 900); every walker stays within 200 m of it.
		from, to := radio.Point{X: 700 + float64(i)*30, Y: 750}, radio.Point{X: 1000, Y: 1050 - float64(i)*20}
		ch := radio.NewGeoChannel(m, &radio.Waypoint{Path: []radio.Point{from, to}, SpeedMps: 30, PingPong: true}, 6)
		if _, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Channel: countedMeasure{ch, &sweeps}}); err != nil {
			t.Fatal(err)
		}
	}
	op := func() {
		for range 10 {
			e.Step()
		}
	}
	for i := 0; i < 50; i++ {
		op() // complete attach and grow the neighbour list
	}
	before := sweeps
	if got := testing.AllocsPerRun(200, op); got != 0 {
		t.Errorf("measurement period of a 12-UE geo eNodeB: %.1f allocs/op, want 0", got)
	}
	if sweeps-before < 12*200 || reports != 0 {
		t.Errorf("%d UE measurements and %d MeasReports: the gate did not measure a quiet sweep", sweeps-before, reports)
	}
}

// countedMeasure counts a geo channel's measurement sweeps.
type countedMeasure struct {
	*radio.GeoChannel
	n *int
}

func (c countedMeasure) Measure(sf lte.Subframe, buf []radio.Meas) (radio.Meas, []radio.Meas) {
	*c.n++
	return c.GeoChannel.Measure(sf, buf)
}

// TestAllocGateVanillaTTI gates the data plane: one Sim.Step of the
// master-less 64 eNodeB x 32 UE benchmark world (fading channels, CBR
// downlink — the vanilla-sim workload) at steady state, serial engine. EPC
// inject, DLEnqueue, schedInput, RoundRobin, apply and transmit run 64 x 32
// times per op on indexes and scheduler-owned scratch, and the serial
// engine runs its phases as plain loops over the awake set. (Measured: 0
// allocs/op for all 2,048 UEs; 4 while each phase was a heap-allocated
// closure; ~900 when the scheduler built its index and result per call.)
func TestAllocGateVanillaTTI(t *testing.T) {
	skipUnderRace(t)
	const budget = 0
	s := newVanillaSim(t)
	s.Run(500) // grow every queue, lane and scratch to its steady size
	if got := testing.AllocsPerRun(200, s.Step); got > budget {
		t.Errorf("vanilla 64 x 32 TTI: %.1f allocs/op, budget %d", got, budget)
	}
}

// vanillaENBs and vanillaUEs size the vanilla-sim-shaped world of
// newVanillaSim.
const vanillaENBs, vanillaUEs = 64, 32

// newVanillaSim builds the master-less 64 eNodeB x 32 UE world of the
// vanilla-sim workload (Gauss-Markov fading around CQI 8-14, CBR downlink
// 200-1200 kb/s) on the serial engine and runs it until every UE attached.
func newVanillaSim(t *testing.T) *flexran.Sim {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	specs := make([]flexran.ENBSpec, vanillaENBs)
	for e := range specs {
		specs[e] = flexran.ENBSpec{ID: flexran.ENBID(e + 1), Seed: rng.Int63()}
		for u := 0; u < vanillaUEs; u++ {
			specs[e].UEs = append(specs[e].UEs, flexran.UESpec{
				IMSI:    uint64((e+1)*1000 + u + 1),
				Channel: flexran.FadingChannel(8+6*float64(u)/31, 0.99, 1.5, rng.Int63()),
				DL:      flexran.NewCBR(200 + 1000*float64(u)/31),
			})
		}
	}
	s := flexran.MustNewSim(flexran.SimConfig{}, specs...)
	if !s.WaitAttached(3000) {
		t.Fatal("the world did not attach")
	}
	return s
}

// TestAllocGateConnSend gates the framed transport send: one coalesced
// single-write frame of a 16-UE report through transport.Conn must not
// allocate at steady state. (Measured: 0 allocs/op.)
func TestAllocGateConnSend(t *testing.T) {
	skipUnderRace(t)
	const budget = 0
	c := newPipeConn(t)
	msg := protocol.New(1, 1000, gateStatsReply(16))
	op := func() {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		op() // grow the connection's write buffer
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("framed Conn send: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocGateRemoteSchedulerTick gates the RIB read path of a per-TTI
// application: one master cycle absorbing a fresh 32-UE report from each of
// two agents and running the RemoteScheduler over the warmed RIB — agent
// directory, UE snapshots and scheduler input taken into the app's reused
// scratch. What remains is the two DLSchedule commands with their envelopes
// and the cycle's own bookkeeping; the scheduler's working set and the
// sessions' ingest queues are reused. (Measured: 6 allocs/op; 18 while each
// agent's scheduler input was a fresh slice, and the RIB snapshots were 146
// of tcp-loop's 221 allocs/TTI before that.)
func TestAllocGateRemoteSchedulerTick(t *testing.T) {
	skipUnderRace(t)
	const budget = 8
	opts := controller.DefaultOptions()
	m := controller.NewMaster(opts)
	m.Register(apps.NewRemoteScheduler(2, sched.NewProportionalFair()), 0)
	var msgs []*protocol.Message
	var sess []*controller.AgentSession
	for _, id := range []lte.ENBID{1, 2} {
		s := m.HandleAgentSession(func(*protocol.Message) error { return nil })
		s.Deliver(protocol.New(id, 0, &protocol.Hello{
			Version: protocol.ProtocolVersion, Epoch: 1,
			Config: protocol.ENBConfig{ID: id, Cells: []protocol.CellConfig{{Cell: 0, Bandwidth: lte.BW10MHz}}},
		}))
		sess = append(sess, s)
		msgs = append(msgs, protocol.New(id, 0, gateStatsReply(32)))
	}
	op := func() {
		for i, msg := range msgs {
			rep := msg.Payload.(*protocol.StatsReply)
			rep.SF++ // the agent's clock advances: a fresh schedule-ahead target
			msg.SF = rep.SF
			sess[i].Deliver(msg)
		}
		m.Tick()
	}
	for i := 0; i < 100; i++ {
		op()
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("remote-scheduler tick over 2 x 32 UEs: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocGateBudgets gates the platform operations whose allocation
// budgets used to be enforced only by a stored benchmark baseline. Each
// budget is that baseline's allocs/op, except the four engine TTIs, which
// lost the engine's phase closures (SimTTI 13 → 5, the sparse pair 4 → 0,
// HandoverScenario 16 → 8); each world runs the serial engine.
func TestAllocGateBudgets(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name   string
		budget float64
		op     func(testing.TB) func()
	}{
		{"VSFSwap", 0, vsfSwapOp},
		{"DSLEval", 0, dslEvalOp},
		{"ConnSendBatch", 0, connSendBatchOp},
		{"ENBStep", 0, enbStepOp},
		{"StatsReplyEncode", 8, statsReplyEncodeOp},
		{"SimTTI", 5, simTTIOp},
		{"SimTTISparse", 0, sparseSimOp(false)},
		{"SimTTISparseNoSkip", 0, sparseSimOp(true)},
		{"HandoverScenario", 8, handoverScenarioOp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.op(t)
			for i := 0; i < 100; i++ {
				op() // grow every buffer, pool and working set
			}
			if got := testing.AllocsPerRun(1000, op); got > tc.budget {
				t.Errorf("%.1f allocs/op, budget %g", got, tc.budget)
			}
		})
	}
}

// vsfSwapOp alternates the active downlink scheduler VSF between the local
// round robin and proportional fair (the §5.4 swap).
func vsfSwapOp(tb testing.TB) func() {
	m := agent.NewMACModule()
	names := [2]string{"rr", "pf"}
	i := 0
	return func() {
		i++
		if err := m.Activate(agent.OpDLUESched, names[i&1]); err != nil {
			tb.Fatal(err)
		}
	}
}

// dslEvalOp evaluates one sandboxed proportional-fair scheduling metric.
func dslEvalOp(tb testing.TB) func() {
	p := vsfdsl.MustCompile(
		"queue > 0 ? inst_rate / max(avg_rate, 1) : -1",
		[]string{"queue", "inst_rate", "avg_rate"})
	env := []float64{15000, 23800, 4000}
	stack := make([]float64, p.MaxStack())
	return func() {
		if _, err := p.EvalStack(env, stack); err != nil {
			tb.Fatal(err)
		}
	}
}

// connSendBatchOp flushes 16 subframe triggers through Conn.SendBatch: one
// assembled buffer and a single Write per batch.
func connSendBatchOp(tb testing.TB) func() {
	c := newPipeConn(tb)
	msgs := make([]*protocol.Message, 16)
	for i := range msgs {
		msgs[i] = protocol.New(1, 1000, &protocol.SubframeTrigger{SF: lte.Subframe(i)})
	}
	return func() {
		if err := c.SendBatch(msgs); err != nil {
			tb.Fatal(err)
		}
	}
}

// enbStepOp steps one data-plane TTI of an eNodeB with 16 backlogged UEs.
func enbStepOp(tb testing.TB) func() {
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	var rntis []lte.RNTI
	for i := 0; i < 16; i++ {
		rnti, err := e.AddUE(enb.UEParams{IMSI: uint64(i), Cell: 0, Channel: radio.Fixed(12)})
		if err != nil {
			tb.Fatal(err)
		}
		rntis = append(rntis, rnti)
	}
	for i := 0; i < 100; i++ {
		e.Step()
	}
	return func() {
		for _, r := range rntis {
			e.DLEnqueue(r, 3000)
		}
		e.Step()
	}
}

// statsReplyEncodeOp serializes a 16-UE report into a fresh buffer with
// protocol.Encode, the path of a caller that keeps no buffer.
func statsReplyEncodeOp(tb testing.TB) func() {
	rep := &protocol.StatsReply{ID: 1, SF: 1000}
	for i := 0; i < 16; i++ {
		rep.UEs.Append(gateUERow(i))
	}
	msg := protocol.New(1, 1000, rep)
	return func() {
		if len(protocol.Encode(msg)) == 0 {
			tb.Fatal("empty encoding")
		}
	}
}

// simTTIOp steps one full-platform TTI: EPC, eNodeB, agent, protocol and
// master with 16 UEs and per-TTI reporting.
func simTTIOp(tb testing.TB) func() {
	opts := flexran.DefaultMasterOptions()
	var specs []flexran.UESpec
	for i := 0; i < 16; i++ {
		specs = append(specs, flexran.UESpec{
			IMSI: uint64(i + 1), Channel: flexran.FixedChannel(12),
			DL: flexran.NewCBR(500),
		})
	}
	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts},
		flexran.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: specs})
	if !s.WaitAttached(2000) {
		tb.Fatal("the world did not attach")
	}
	return s.Step
}

// sparseSimOp steps one TTI of the 4,096-eNodeB sparse world, with or
// without the idle fast-forward.
func sparseSimOp(noFF bool) func(testing.TB) func() {
	return func(testing.TB) func() { return newSparseSim(noFF).Step }
}

// handoverScenarioOp steps a mobility-heavy TTI: two cells, eight walkers
// ping-ponging across the border with geometry-derived CQI, A3 evaluation
// at the agents and the MobilityManager executing handovers.
func handoverScenarioOp(tb testing.TB) func() {
	rmap := flexran.NewRadioMap(
		flexran.RadioSite{ENB: 1, Cell: 0, Tx: flexran.Transmitter{Pos: flexran.Point{X: 0}, PowerDBm: 43}},
		flexran.RadioSite{ENB: 2, Cell: 0, Tx: flexran.Transmitter{Pos: flexran.Point{X: 1000}, PowerDBm: 43}},
	)
	spec1 := flexran.ENBSpec{ID: 1, Agent: true, Seed: 1}
	for u := 0; u < 8; u++ {
		spec1.UEs = append(spec1.UEs, flexran.UESpec{
			IMSI: uint64(100 + u),
			Channel: flexran.NewGeoChannel(rmap, &flexran.WaypointMobility{
				Path:     []flexran.Point{{X: 200}, {X: 800}},
				SpeedMps: float64(80 + 20*u),
				PingPong: true,
			}, 1),
			DL: flexran.NewCBR(400),
		})
	}
	opts := flexran.DefaultMasterOptions()
	s := flexran.MustNewSim(flexran.SimConfig{Master: &opts},
		spec1, flexran.ENBSpec{ID: 2, Agent: true, Seed: 2})
	s.Master.Register(flexran.NewMobilityManager(), 5)
	if !s.WaitAttached(2000) {
		tb.Fatal("the world did not attach")
	}
	return s.Step
}
