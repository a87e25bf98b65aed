package flexran

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"flexran/internal/controller"
	"flexran/internal/metrics"
	"flexran/internal/northbound"
	"flexran/internal/protocol"
	"flexran/internal/rt"
	"flexran/internal/transport"
)

// This file is the wall-clock deployment mode: the master and agents run
// as separate processes connected over TCP (the paper's testbed setup,
// used by cmd/flexran-master and cmd/flexran-enb). The virtual-time mode
// in internal/sim shares all control-plane code with these loops, and the
// eNodeB too: the agent loop steps a node built by NewNode from the same
// ENBSpec a simulation takes, and injects its traffic with the same code.
//
// Both loops pace on rt.Pacer: TTI deadlines are absolute times computed
// from the run start, so a late step never shifts later deadlines, and a
// stall surfaces as due steps plus an explicit miss count instead of the
// silently coalesced ticks a time.Ticker delivers. With an attached
// LoopStats the 1 ms budget is observable end to end — deadline misses,
// the agent report encode+send leg, the master ingest→RIB-apply and
// application legs and the Echo-TS command round trip all land in
// log-bucketed histograms.

// DefaultMasterAddr is the default FlexRAN control port.
const DefaultMasterAddr = ":2210"

// LoopStats is the real-time engine's deadline/latency accounting: tick
// and miss counters plus per-leg latency histograms. One LoopStats may be
// shared by many loops (all fields are concurrency-safe); the zero value
// is ready to use.
type LoopStats = metrics.LoopStats

// HistogramSummary is a point-in-time digest of one latency leg.
type HistogramSummary = metrics.HistogramSummary

// ControlListener accepts FlexRAN control connections (see ListenControl).
type ControlListener = transport.Listener

// ListenControl binds the master's control listener. Use addr "127.0.0.1:0"
// to bind an ephemeral port (tests, in-process harnesses) and read it back
// from Addr().
func ListenControl(addr string) (*ControlListener, error) {
	return transport.Listen(addr)
}

// RTConfig tunes the wall-clock loops.
type RTConfig struct {
	// Period is the TTI length; 0 defaults to the paper's 1 ms.
	Period time.Duration
	// Stats, when non-nil, receives deadline accounting and latency
	// histograms from the loop (and is attached to the master/agent so
	// the ingest, apps, report and RTT legs are measured too).
	Stats *LoopStats
}

func (c RTConfig) period() time.Duration {
	if c.Period <= 0 {
		return time.Millisecond
	}
	return c.Period
}

// ServeMaster runs a master controller over TCP with default pacing (1 ms
// TTIs, no stats sink); see ServeMasterRT.
func ServeMaster(m *Master, addr string, stop <-chan struct{}) error {
	return ServeMasterRT(m, addr, stop, RTConfig{})
}

// ServeMasterRT binds addr and serves; see ServeMasterListener.
func ServeMasterRT(m *Master, addr string, stop <-chan struct{}, cfg RTConfig) error {
	l, err := transport.Listen(addr)
	if err != nil {
		return err
	}
	return ServeMasterListener(m, l, stop, cfg)
}

// ServeMasterListener runs a master controller on an already-bound
// listener: an accept loop feeding agent connections into the master, plus
// the task-manager tick loop at one cycle per TTI. Inbound traffic is
// absorbed in batches — each reader drains everything its connection has
// buffered and hands the whole batch to the per-session ingest queue in
// one operation, so per-TTI reports from many agents contend on no shared
// lock. The loop owns the listener and blocks until stop is closed; by the
// time it returns, the listener and every accepted connection are closed
// (readers never outlive the server, and the address can be bound again).
func ServeMasterListener(m *Master, l *ControlListener, stop <-chan struct{}, cfg RTConfig) error {
	ls := cfg.Stats
	if ls != nil {
		m.SetLoopStats(ls)
	}

	// Live-connection registry: closing stop must tear down the accepted
	// connections too, or their readers block in RecvBatch forever — one
	// leaked goroutine and socket per agent that ever attached. The
	// teardown has its own goroutine so that it is prompt even while the
	// tick loop is catching up on late cycles; the loop's return waits for
	// it on torn.
	var connMu sync.Mutex
	conns := make(map[*transport.Conn]struct{})
	stopped := false
	torn := make(chan struct{})

	go func() {
		defer close(torn)
		<-stop
		l.Close()
		connMu.Lock()
		stopped = true
		for c := range conns {
			c.Close()
		}
		connMu.Unlock()
	}()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			connMu.Lock()
			if stopped {
				// Accept raced the shutdown: the registry sweep already
				// ran, so this connection is ours to close.
				connMu.Unlock()
				conn.Close()
				return
			}
			conns[conn] = struct{}{}
			connMu.Unlock()
			sess := m.HandleAgentSession(conn.Send)
			go func() {
				batch := make([]*protocol.Message, 0, 64)
				for {
					batch = batch[:0]
					if !conn.RecvBatch(&batch) {
						break
					}
					sess.Deliver(batch...)
				}
				sess.Close()
				conn.Close()
				connMu.Lock()
				delete(conns, conn)
				connMu.Unlock()
			}()
		}
	}()

	pacer := rt.NewPacer(time.Now(), cfg.period())
	timer := time.NewTimer(cfg.period())
	defer timer.Stop()
	for {
		now := time.Now()
		if d := pacer.Deadline(); now.Before(d) {
			timer.Reset(d.Sub(now))
			select {
			case <-stop:
				<-torn
				return nil
			case <-timer.C:
			}
		}
		due, missed := pacer.Due(time.Now())
		if ls != nil {
			ls.Account(due, missed)
		}
		// Run every due cycle, late ones included: the master's cycle
		// count stays aligned with the agents' wall-clock subframe count,
		// and the backlog is visible as misses instead of silent drift.
		for i := 0; i < due; i++ {
			if ls != nil {
				t0 := time.Now()
				m.Tick()
				ls.Step.Observe(time.Since(t0))
			} else {
				m.Tick()
			}
		}
	}
}

// NorthboundOption customizes the northbound server before it starts
// serving.
type NorthboundOption func(*northbound.Server)

// WithSliceBroker attaches a slice registry (e.g. a *SliceBroker) to the
// server's /slices resources; without it they answer 503.
func WithSliceBroker(reg northbound.SliceRegistry) NorthboundOption {
	return func(s *northbound.Server) { s.AttachSlices(reg) }
}

// ServeNorthbound binds addr and serves the master's northbound HTTP API
// (internal/northbound): RIB queries, the live /watch event stream,
// actuation endpoints and — with WithSliceBroker — the /slices resource
// model. ls feeds /stats/loop and may be nil. The server runs until stop
// is closed; the bound address is returned (use "127.0.0.1:0" for an
// ephemeral port in tests).
func ServeNorthbound(m *Master, ls *LoopStats, addr string, stop <-chan struct{}, opts ...NorthboundOption) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := northbound.New(m, ls)
	for _, opt := range opts {
		opt(h)
	}
	srv := &http.Server{Handler: h}
	go func() {
		<-stop
		srv.Close()
	}()
	go srv.Serve(l) //nolint:errcheck // reported via the listener close path
	return l.Addr(), nil
}

// RunAgentLoop connects an agent-enabled node (see NewNode) to a master
// over TCP with default pacing (1 ms TTIs, no stats sink); see
// RunAgentLoopRT.
func RunAgentLoop(n *Node, masterAddr string, stop <-chan struct{}) error {
	return RunAgentLoopRT(n, masterAddr, stop, RTConfig{})
}

// RunAgentLoopRT connects an agent-enabled node (see NewNode) to a master
// over TCP and runs its data plane in real time: one subframe per TTI
// period, each one the node's traffic injection and then its eNodeB step,
// with inbound control messages dispatched between subframes. The node,
// its agent and its traffic are single-threaded by design; this loop's
// goroutine is the only one that touches them. Control messages are
// drained in batches and delivered inline, but the TTI step always runs
// once the deadline has passed — a sustained inbound burst can delay a
// subframe (the pacer counts it as a miss) yet never starve or skip it. It
// blocks until stop is closed or the connection fails.
func RunAgentLoopRT(n *Node, masterAddr string, stop <-chan struct{}, cfg RTConfig) error {
	a := n.Agent
	if a == nil {
		return fmt.Errorf("flexran: eNodeB %d has no agent", n.ENB.ID())
	}
	ls := cfg.Stats
	if ls != nil {
		a.SetLoopStats(ls)
	}
	conn, err := transport.Dial(masterAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	a.Connect(conn.Send)

	// closedErr is the loop's result once the transport has closed. A close
	// observed after stop is the shutdown itself, not a failure: the master
	// tears its connections down on the same stop, and the closed Recv
	// channel can win a select against stop.
	closedErr := func() error {
		select {
		case <-stop:
			return nil
		default:
		}
		if err := conn.Err(); err != nil {
			return fmt.Errorf("flexran: control channel: %w", err)
		}
		return nil
	}
	deliver := func(batch []*protocol.Message) {
		for _, m := range batch {
			a.Deliver(m)
			m.Release() // the agent copies what it keeps
		}
	}

	pacer := rt.NewPacer(time.Now(), cfg.period())
	timer := time.NewTimer(cfg.period())
	defer timer.Stop()
	batch := make([]*protocol.Message, 0, 16)
	for {
		now := time.Now()
		if d := pacer.Deadline(); now.Before(d) {
			timer.Reset(d.Sub(now))
			select {
			case <-stop:
				return nil
			case msg, ok := <-conn.Recv():
				if !ok {
					return closedErr()
				}
				// Deliver inline, then re-check the deadline at the top of
				// the loop: once it has passed the select is skipped
				// entirely, so a control-message flood cannot starve the
				// subframe step the way the old ticker select could.
				batch = append(batch[:0], msg)
				open := transport.DrainRecv(conn.Recv(), &batch)
				deliver(batch)
				if !open {
					return closedErr()
				}
				continue
			case <-timer.C:
			}
		}
		due, missed := pacer.Due(time.Now())
		if ls != nil {
			ls.Account(due, missed)
		}
		if due == 0 {
			continue // early timer wake; re-arm
		}
		// Apply whatever control arrived during the last subframe before
		// stepping, so commands take effect on their TTI.
		batch = batch[:0]
		open := transport.DrainRecv(conn.Recv(), &batch)
		deliver(batch)
		if !open {
			return closedErr()
		}
		// Step every due subframe, late ones included: the data plane's
		// subframe count keeps tracking wall-clock TTIs (and the master's
		// cycle count), with the stall accounted as misses.
		for i := 0; i < due; i++ {
			if ls != nil {
				t0 := time.Now()
				n.Inject(n.ENB.Now())
				n.ENB.Step()
				ls.Step.Observe(time.Since(t0))
			} else {
				n.Inject(n.ENB.Now())
				n.ENB.Step()
			}
		}
	}
}

// MasterSummary renders a one-line status of the master's RIB, for
// monitoring output in the cmd binaries.
func MasterSummary(m *controller.Master) string {
	rib := m.RIB()
	agents := rib.Agents()
	total := 0
	for _, id := range agents {
		total += rib.UECount(id)
	}
	return fmt.Sprintf("cycle=%d agents=%d ues=%d rib=%d records",
		m.Cycle(), len(agents), total, rib.Size())
}
