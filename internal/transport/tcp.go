package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"

	"flexran/internal/metrics"
	"flexran/internal/protocol"
)

// Conn is a TCP control channel carrying FlexRAN protocol messages. Sends
// are safe for concurrent use; received messages are delivered on the Recv
// channel by an internal reader goroutine.
type Conn struct {
	nc    net.Conn
	meter *metrics.Meter

	sendMu sync.Mutex
	// wbuf is the per-connection write buffer, reused under sendMu: frames
	// are assembled (header + serialized message, coalesced) into it and
	// flushed with one Write, so steady-state sends allocate nothing and a
	// frame can never be torn by an interleaved writer. sizes holds the
	// per-frame payload sizes of the batch being flushed (for metering).
	wbuf  []byte
	sizes []int

	recv chan *protocol.Message

	// corrupted counts inbound frames dropped on a checksum mismatch
	// (framing stays aligned, so the stream continues past them).
	corrupted atomic.Uint64

	closeOnce sync.Once
	closed    chan struct{}
	readErr   error
	readMu    sync.Mutex
}

// NewConn wraps an established net.Conn (either side). recvBuf is the
// capacity of the receive channel; per-TTI control traffic needs headroom
// so a slow consumer does not stall TCP reads.
func NewConn(nc net.Conn, recvBuf int) *Conn {
	c := &Conn{
		nc:     nc,
		meter:  metrics.NewMeter(),
		recv:   make(chan *protocol.Message, recvBuf),
		closed: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Dial connects to a FlexRAN master or agent at addr.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(nc, 1024), nil
}

// appendFrame serializes m as one length-prefixed, checksummed frame onto
// c.wbuf, returning the encoded message size (without the header).
func (c *Conn) appendFrame(m *protocol.Message) (int, error) {
	start := len(c.wbuf)
	c.wbuf = append(c.wbuf, 0, 0, 0, 0, 0, 0, 0, 0)
	c.wbuf = protocol.AppendMessage(c.wbuf, m)
	n := len(c.wbuf) - start - frameHeaderSize
	if n > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	payload := c.wbuf[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(c.wbuf[start:], uint32(n))
	binary.BigEndian.PutUint32(c.wbuf[start+4:], crc32.Checksum(payload, crcTable))
	return n, nil
}

// Send serializes and writes one message: header and payload are coalesced
// into the connection's reused write buffer and go out in a single Write
// (one syscall, no torn frames under a slow peer). The message is metered
// only after the write succeeded.
func (c *Conn) Send(m *protocol.Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.wbuf = c.wbuf[:0]
	n, err := c.appendFrame(m)
	if err != nil {
		return err
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return err
	}
	c.meter.Record(m.Payload.Kind().Category(), n+FrameOverhead)
	return nil
}

// SendBatch serializes every message into one coalesced buffer and writes
// it with a single Write call — one syscall per flushed batch, however many
// per-TTI messages it carries. Messages are metered only after the write
// succeeded.
func (c *Conn) SendBatch(msgs []*protocol.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.wbuf = c.wbuf[:0]
	c.sizes = c.sizes[:0]
	for _, m := range msgs {
		n, err := c.appendFrame(m)
		if err != nil {
			return err
		}
		c.sizes = append(c.sizes, n)
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return err
	}
	for i, m := range msgs {
		c.meter.Record(m.Payload.Kind().Category(), c.sizes[i]+FrameOverhead)
	}
	return nil
}

// Recv returns the channel of incoming messages. It is closed when the
// connection ends; Err reports the terminal error, if any.
func (c *Conn) Recv() <-chan *protocol.Message { return c.recv }

// DrainRecv greedily appends every message already buffered on recv to
// *batch without blocking. It reports false once recv is closed (what
// was appended before the close is still valid).
func DrainRecv(recv <-chan *protocol.Message, batch *[]*protocol.Message) bool {
	for {
		select {
		case m, ok := <-recv:
			if !ok {
				return false
			}
			*batch = append(*batch, m)
		default:
			return true
		}
	}
}

// RecvBatch blocks for one inbound message, then greedily drains every
// further message the connection has already buffered, appending all of
// them to *batch (the caller resets the slice between calls). One batch
// handed to the master's per-session ingest queue costs one lock
// round-trip regardless of how many per-TTI reports it carries. It
// reports false when the connection is closed and nothing was appended;
// a batch cut short by the close is still delivered, and the next call
// returns false.
func (c *Conn) RecvBatch(batch *[]*protocol.Message) bool {
	msg, ok := <-c.recv
	if !ok {
		return false
	}
	*batch = append(*batch, msg)
	DrainRecv(c.recv, batch)
	return true
}

// Err returns the error that terminated the read loop (nil for clean EOF
// or local close).
func (c *Conn) Err() error {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	return c.readErr
}

// Meter exposes the byte counts of sent messages, keyed by protocol
// category.
func (c *Conn) Meter() *metrics.Meter { return c.meter }

// CorruptedFrames reports how many inbound frames failed their checksum
// and were dropped.
func (c *Conn) CorruptedFrames() uint64 { return c.corrupted.Load() }

// Close terminates the connection; the Recv channel is closed after the
// reader exits.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.nc.Close()
	})
	return err
}

func (c *Conn) readLoop() {
	defer close(c.recv)
	var buf []byte
	for {
		payload, err := ReadFrame(c.nc, buf)
		if errors.Is(err, ErrFrameCorrupt) {
			// Counted and dropped: the declared length was consumed, so
			// the next frame starts cleanly.
			c.corrupted.Add(1)
			buf = payload[:0]
			continue
		}
		if err != nil {
			select {
			case <-c.closed: // local close: not an error
			default:
				c.readMu.Lock()
				c.readErr = err
				c.readMu.Unlock()
			}
			return
		}
		buf = payload[:0]
		m, err := protocol.DecodePooled(payload)
		if err != nil {
			c.readMu.Lock()
			c.readErr = fmt.Errorf("transport: decoding frame: %w", err)
			c.readMu.Unlock()
			return
		}
		select {
		case c.recv <- m:
		case <-c.closed:
			return
		}
	}
}

// Listener accepts FlexRAN control connections.
type Listener struct {
	nl net.Listener
}

// Listen binds a TCP listener at addr (e.g. ":2210", the FlexRAN default).
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Accept waits for the next agent connection.
func (l *Listener) Accept() (*Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(nc, 1024), nil
}

// Addr reports the bound address.
func (l *Listener) Addr() net.Addr { return l.nl.Addr() }

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }
