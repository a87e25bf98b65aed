package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"flexran"
	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/protocol"
	"flexran/internal/sched"
	"flexran/internal/transport"
)

// tcpWorld is the tcp-loop workload: agents dialled to a master over
// loopback TCP, driven in lock-step by one goroutine. The hand-offs
// between the driver and the connection readers are exact because every
// message is counted where it is sent: the driver waits until the master-
// side readers have delivered as many messages as the agents sent before
// it ticks, and each agent then applies exactly as many commands as the
// master sent it. Nothing polls and nothing sleeps, so the times are the
// program's (and loopback's), not a pacer's.
type tcpWorld struct {
	m      *flexran.Master
	l      *flexran.ControlListener
	epc    *flexran.EPC
	agents []*tcpAgent
	rs     *apps.RemoteScheduler
	tr     *tracer
	sf     flexran.Subframe

	// upSent counts agent-to-master messages handed to the socket; only
	// the driver goroutine writes it (agents send from ENB.Step and
	// Agent.Deliver). delivered counts what the master-side readers have
	// queued on their sessions; wake is their doorbell.
	upSent    int64
	delivered atomic.Int64
	wake      chan struct{}
	readers   sync.WaitGroup

	// loopStart stamps the first report of the current TTI entering
	// Conn.Send; the loop closes when the TTI's last command is applied.
	loopStart time.Time
	loopOpen  bool
	loopNs    []int64

	sendFailed int64 // sends the transport refused, either direction
	unapplied  int64 // commands whose connection closed before delivery
}

type tcpAgent struct {
	enb   *flexran.ENB
	agent *flexran.Agent
	conn  *transport.Conn // agent side
	mconn *transport.Conn // master side
	ues   []flexran.UESpec
	rntis []flexran.RNTI
	// downSent/applied count master-to-agent messages written and applied.
	downSent, applied int64
}

func buildTCP(seed int64, warmTTIs int) (w *tcpWorld, err error) {
	opts := flexran.DefaultMasterOptions()
	opts.Workers = 1
	w = &tcpWorld{
		m:      flexran.NewMaster(opts),
		epc:    flexran.NewEPC(),
		wake:   make(chan struct{}, 1),
		loopNs: make([]int64, 0, 1<<17),
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	w.rs = apps.NewRemoteScheduler(2, sched.NewProportionalFair())
	w.m.Register(w.rs, 100)
	registerStamps(w.m, &w.tr, "")
	if w.l, err = flexran.ListenControl("127.0.0.1:0"); err != nil {
		return w, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < tcpAgents; i++ {
		ag := &tcpAgent{ues: fadingUEs(rng, i+1, tcpUEs)}
		ag.enb = flexran.NewENB(flexran.ENBConfig{ID: flexran.ENBID(i + 1), Seed: rng.Int63()})
		ag.agent = flexran.NewAgent(ag.enb, flexran.AgentOptions{})
		if err = ag.agent.Reconfigure("mac:\n  dl_ue_sched:\n    behavior: remote\n"); err != nil {
			return w, err
		}
		w.epc.Register(ag.enb)
		for _, u := range ag.ues {
			rnti, err := ag.enb.AddUE(flexran.UEParams{IMSI: u.IMSI, Channel: u.Channel})
			if err != nil {
				return w, err
			}
			if _, err := w.epc.Attach(u.IMSI, ag.enb.ID(), rnti); err != nil {
				return w, err
			}
			ag.rntis = append(ag.rntis, rnti)
		}
		w.agents = append(w.agents, ag)
		if ag.conn, err = transport.Dial(w.l.Addr().String()); err != nil {
			return w, err
		}
		if ag.mconn, err = w.l.Accept(); err != nil {
			return w, err
		}
		sess := w.m.HandleAgentSession(w.masterSend(ag))
		w.readers.Add(1)
		go w.read(ag.mconn, sess)
		ag.agent.Connect(w.agentSend(ag))
	}
	attached := false
	for i := 0; i < 2000 && !attached; i++ {
		w.tti()
		attached = w.allConnected()
	}
	if !attached {
		return w, fmt.Errorf("UEs did not attach within 2000 TTIs")
	}
	for i := 0; i < warmTTIs; i++ {
		w.tti()
	}
	return w, nil
}

// read is the master-side connection reader, as in ServeMasterListener:
// drain what the connection has buffered, hand the batch to the session.
func (w *tcpWorld) read(c *transport.Conn, sess *controller.AgentSession) {
	defer w.readers.Done()
	batch := make([]*protocol.Message, 0, 64)
	for {
		batch = batch[:0]
		if !c.RecvBatch(&batch) {
			sess.Close()
			return
		}
		n := int64(len(batch))
		sess.Deliver(batch...)
		w.delivered.Add(n)
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

func (w *tcpWorld) agentSend(ag *tcpAgent) func(*protocol.Message) error {
	return func(m *protocol.Message) error {
		if !w.loopOpen {
			w.loopOpen, w.loopStart = true, time.Now()
		}
		w.tr.begin("transport.send")
		err := ag.conn.Send(m)
		w.tr.end()
		if err != nil {
			w.sendFailed++
			return err
		}
		w.upSent++
		return nil
	}
}

func (w *tcpWorld) masterSend(ag *tcpAgent) func(*protocol.Message) error {
	return func(m *protocol.Message) error {
		w.tr.begin("transport.send")
		err := ag.mconn.Send(m)
		w.tr.end()
		if err != nil {
			w.sendFailed++
			return err
		}
		ag.downSent++
		return nil
	}
}

func (w *tcpWorld) setTracer(tr *tracer) { w.tr = tr }

// tti is one lock-step TTI over the sockets: inject, step every eNodeB
// (reports go out), wait for the readers, tick the master (commands go
// out), and have every agent apply every command sent to it.
func (w *tcpWorld) tti() {
	tr := w.tr
	tr.begin("tti")
	for _, ag := range w.agents {
		tr.begin("epc.inject")
		for _, u := range ag.ues {
			if b := u.DL.BytesAt(w.sf); b > 0 {
				w.epc.Downlink(u.IMSI, b) //nolint:errcheck // bearer attached in buildTCP
			}
		}
		tr.end()
	}
	w.loopOpen = false
	for _, ag := range w.agents {
		tr.begin("enb.step")
		ag.enb.Step()
		tr.end()
	}
	tr.begin("transport.recv_wait")
	for w.delivered.Load() < w.upSent {
		<-w.wake
	}
	tr.end()
	tr.begin("controller.tick")
	tr.begin("controller.core")
	w.m.Tick() // the stamp apps close core, bracket apps
	tr.end()
	applied := false
	for _, ag := range w.agents {
		tr.begin("agent.deliver")
		for ag.applied < ag.downSent {
			msg, ok := <-ag.conn.Recv()
			if !ok {
				w.unapplied += ag.downSent - ag.applied
				ag.applied = ag.downSent
				break
			}
			ag.agent.Deliver(msg)
			msg.Release()
			ag.applied++
			applied = true
		}
		tr.end()
	}
	if w.loopOpen && applied {
		w.loopNs = append(w.loopNs, int64(time.Since(w.loopStart)))
	}
	tr.end()
	w.sf++
}

func (w *tcpWorld) allConnected() bool {
	for _, ag := range w.agents {
		for _, r := range ag.rntis {
			if !ag.enb.Connected(r) {
				return false
			}
		}
	}
	return true
}

func (w *tcpWorld) check() int {
	bad := 0
	if !w.allConnected() {
		bad++
	}
	rib := w.m.RIB()
	for _, ag := range w.agents {
		id := ag.enb.ID()
		if rib.UECount(id) != len(ag.rntis) {
			bad++
		}
		if sf, ok := rib.AgentSF(id); !ok || sf+8 < ag.enb.Now() {
			bad++
		}
	}
	return bad
}

func (w *tcpWorld) counters() counters {
	c := counters{cmdsFailed: w.sendFailed + w.unapplied}
	for _, ag := range w.agents {
		up, down := ag.conn.Meter(), ag.mconn.Meter()
		c.upBytes += up.TotalBytes()
		c.downBytes += down.TotalBytes()
		c.reports += up.Messages(protocol.CatStats)
		c.cmds += down.Messages(protocol.CatCommands)
		c.droppedSends += int64(ag.agent.DroppedSends())
		c.corrupted += int64(ag.conn.CorruptedFrames() + ag.mconn.CorruptedFrames())
		c.downMsgs += ag.downSent
	}
	c.upMsgs = w.upSent
	return c
}

func (w *tcpWorld) samples() samples { return samples{loopNs: w.loopNs} }

func (w *tcpWorld) resetSamples() { w.loopNs = w.loopNs[:0] }

func (w *tcpWorld) deliveredDL() uint64 {
	var sum uint64
	for _, ag := range w.agents {
		for _, r := range ag.rntis {
			rep, _ := ag.enb.UEReport(r)
			sum += rep.DLDelivered
		}
	}
	return sum
}

func (w *tcpWorld) digest() uint64 {
	h := fnv.New64a()
	for _, ag := range w.agents {
		for i, r := range ag.rntis {
			rep, _ := ag.enb.UEReport(r)
			fmt.Fprintf(h, "%d:%d/%d;", ag.ues[i].IMSI, rep.DLDelivered, rep.DLDropped)
		}
	}
	c := w.counters()
	fmt.Fprintf(h, "rib%d up%d/%d down%d/%d cmds%d", w.m.RIB().Size(),
		c.upMsgs, c.upBytes, c.downMsgs, c.downBytes, w.rs.Sent)
	return h.Sum64()
}

func (w *tcpWorld) probeTarget() (*flexran.ENB, []flexran.UESpec, *flexran.EPC, *flexran.Agent) {
	ag := w.agents[0]
	return ag.enb, ag.ues, w.epc, ag.agent
}

// close tears the sockets down and waits for the readers to exit.
func (w *tcpWorld) close() {
	for _, ag := range w.agents {
		if ag.conn != nil {
			ag.conn.Close()
		}
		if ag.mconn != nil {
			ag.mconn.Close()
		}
	}
	if w.l != nil {
		w.l.Close()
	}
	w.readers.Wait()
}
