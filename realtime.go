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
// Each side has one entry point, ServeMaster and RunAgentLoop, and both
// run one paced loop (pace) on rt.Pacer: TTI deadlines are absolute times
// computed from the run start, so a late step never shifts later
// deadlines, and a stall surfaces as due steps plus an explicit miss count
// instead of the silently coalesced ticks a time.Ticker delivers. Ahead of
// every step the loop drains inbound control on its own goroutine — the
// agent its one connection, the master every live connection in attach
// order — so the only goroutine a connection has is its transport reader.
// With an attached LoopStats the 1 ms budget is observable end to end —
// deadline misses, the agent report encode+send leg, the master
// ingest→RIB-apply and application legs and the Echo-TS command round trip
// all land in log-bucketed histograms.

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

// RTConfig tunes the wall-clock loops. The zero value paces at the
// paper's 1 ms TTI with no stats sink.
type RTConfig struct {
	// Period is the TTI length; 0 defaults to the paper's 1 ms.
	Period time.Duration
	// Stats, when non-nil, receives deadline accounting and latency
	// histograms from the loop (and is attached to the master/agent so
	// the ingest, apps, report and RTT legs are measured too).
	Stats *LoopStats
}

// pace runs a wall-clock TTI loop on the calling goroutine until stop is
// closed or drain reports its inbound channel closed. Every due TTI, late
// ones included, is drain(nil) followed by step: the step count keeps
// tracking wall-clock TTIs, and a backlog is visible as misses instead of
// silent drift. cfg.Stats times each drain and step together (its Step
// histogram is the loop's whole per-TTI work), and stop is checked before
// every one, so a backlog never delays shutdown. Between deadlines the
// loop sleeps, waking early for a message on wake (nil: never) to hand it
// to drain; those early drains are not timed.
func pace(cfg RTConfig, stop <-chan struct{}, wake <-chan *protocol.Message,
	drain func(first *protocol.Message) bool, step func()) {
	ls := cfg.Stats
	pacer := rt.NewPacer(time.Now(), cfg.Period)
	timer := time.NewTimer(0) // re-armed (stale fire discarded) before every wait
	defer timer.Stop()
	for {
		now := time.Now()
		if d := pacer.Deadline(); now.Before(d) {
			timer.Reset(d.Sub(now))
			select {
			case <-stop:
				return
			case msg := <-wake:
				// Handle it now, then re-check the deadline at the top of
				// the loop: once it has passed the select is skipped, so a
				// message flood cannot starve the step.
				if !drain(msg) {
					return
				}
				continue
			case <-timer.C:
			}
		}
		due, missed := pacer.Due(time.Now())
		if ls != nil {
			ls.Account(due, missed)
		}
		for i := 0; i < due; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var t0 time.Time
			if ls != nil {
				t0 = time.Now()
			}
			if !drain(nil) {
				return
			}
			step()
			if ls != nil {
				ls.Step.Observe(time.Since(t0))
			}
		}
	}
}

// ServeMaster runs a master controller on an already-bound listener (see
// ListenControl): an accept loop attaching agent connections to the
// master, and the task-manager tick loop at one cycle per TTI. Before each
// Tick the tick goroutine drains every live connection, in attach order,
// into its AgentSession; a connection whose reader has exited has its
// session and socket closed there and leaves the registry.
//
// Inbound traffic is therefore bounded by each reader's 1,024-message
// channel and TCP backpressure, and nothing reads an agent's socket while
// a Tick runs. The trade-off is fault coupling: a Tick blocked in a write
// to an agent that has stopped reading (writes have no deadline) stops
// draining every other agent too, and once their channels and socket
// buffers fill, their own sends, and with them their data planes, block
// until that write completes or stop is closed.
//
// The loop owns the listener and blocks until stop is closed. Closing stop
// closes the listener and every connection at once, from a goroutine of
// its own, so that a Tick blocked in a write returns; by the time
// ServeMaster returns, every session is closed (readers never outlive the
// server, and the address can be bound again).
func ServeMaster(m *Master, l *ControlListener, stop <-chan struct{}, cfg RTConfig) {
	if cfg.Stats != nil {
		m.SetLoopStats(cfg.Stats)
	}
	type link struct {
		conn *transport.Conn
		sess *controller.AgentSession
	}
	// The live-connection registry, in attach order: the accept goroutine
	// appends, the tick goroutine prunes, and the teardown goroutine closes
	// every socket on stop. Sessions are closed on the tick goroutine only.
	var (
		mu      sync.Mutex
		links   []link
		stopped bool
	)
	torn := make(chan struct{})
	go func() {
		defer close(torn)
		<-stop
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		for _, k := range links {
			k.conn.Close()
		}
	}()
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			mu.Lock()
			if stopped {
				// Accept raced the teardown sweep: this socket is ours to
				// close, and it never gets a session.
				mu.Unlock()
				conn.Close()
				return
			}
			links = append(links, link{conn, m.HandleAgentSession(conn.Send)})
			mu.Unlock()
		}
	}()
	defer func() {
		<-torn
		<-accepting
		for _, k := range links {
			k.sess.Close()
		}
	}()

	batch := make([]*protocol.Message, 0, 64)
	drain := func(*protocol.Message) bool {
		mu.Lock()
		defer mu.Unlock()
		live := links[:0]
		for _, k := range links {
			batch = batch[:0]
			open := transport.DrainRecv(k.conn.Recv(), &batch)
			k.sess.Deliver(batch...)
			if open {
				live = append(live, k)
				continue
			}
			// The reader has exited: the session's last batch is still
			// applied on this Tick, after which the master drops it.
			k.sess.Close()
			k.conn.Close()
		}
		clear(links[len(live):])
		links = live
		return true
	}
	pace(cfg, stop, nil, drain, m.Tick)
}

// Northbound connection limits. A client that has not sent its request
// headers within NorthboundHeaderTimeout, or keeps an idle connection
// open for NorthboundIdleTimeout, is disconnected. There is no write
// timeout: /watch is a long-lived event stream.
const (
	NorthboundHeaderTimeout = 5 * time.Second
	NorthboundIdleTimeout   = 2 * time.Minute
)

// ServeNorthbound binds addr and serves the master's northbound HTTP API
// (internal/northbound): RIB queries, the live /watch event stream,
// actuation endpoints and the /slices resource model over slices (e.g. a
// *SliceBroker; nil makes /slices answer 503). ls feeds /stats/loop and
// may be nil. The server runs until stop is closed; the bound address is
// returned (use "127.0.0.1:0" for an ephemeral port in tests).
func ServeNorthbound(m *Master, ls *LoopStats, slices northbound.SliceRegistry, addr string, stop <-chan struct{}) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := northbound.New(m, ls)
	h.AttachSlices(slices)
	srv := &http.Server{Handler: h,
		ReadHeaderTimeout: NorthboundHeaderTimeout, IdleTimeout: NorthboundIdleTimeout}
	go func() {
		<-stop
		srv.Close()
	}()
	go srv.Serve(l) //nolint:errcheck // reported via the listener close path
	return l.Addr(), nil
}

// RunAgentLoop connects an agent-enabled node (see NewNode) to a master
// over TCP and runs its data plane in real time: one subframe per TTI
// period, each one the node's traffic injection and then its eNodeB step,
// with inbound control messages applied before every subframe and, between
// deadlines, as they arrive. The node, its agent and its traffic are
// single-threaded by design; this loop's goroutine is the only one that
// touches them. A sustained inbound burst can delay a subframe (the pacer
// counts it as a miss) yet never starve or skip it. It blocks until stop
// is closed or the connection fails.
func RunAgentLoop(n *Node, masterAddr string, stop <-chan struct{}, cfg RTConfig) error {
	a := n.Agent
	if a == nil {
		return fmt.Errorf("flexran: eNodeB %d has no agent", n.ENB.ID())
	}
	if cfg.Stats != nil {
		a.SetLoopStats(cfg.Stats)
	}
	conn, err := transport.Dial(masterAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	a.Connect(conn.Send)

	batch := make([]*protocol.Message, 0, 16)
	drain := func(first *protocol.Message) bool {
		batch = batch[:0]
		if first != nil {
			batch = append(batch, first)
		}
		open := transport.DrainRecv(conn.Recv(), &batch)
		for _, m := range batch {
			a.Deliver(m)
			m.Release() // the agent copies what it keeps
		}
		return open
	}
	pace(cfg, stop, conn.Recv(), drain, func() {
		n.Inject(n.ENB.Now())
		n.ENB.Step()
	})

	// A closed transport observed after stop is the shutdown itself, not a
	// failure: the master tears its connections down on the same stop.
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
