// Package transport carries FlexRAN protocol messages between the master
// controller and agents. Two interchangeable channel implementations are
// provided, matching the paper's "abstract communication channel" design
// (§4.3.2: "the communication channel implementation can vary"):
//
//   - Conn: a real TCP channel with length-prefix framing, used by the
//     cmd/ binaries and integration tests (the paper's deployment mode).
//   - SimEndpoint: an in-process channel driven by the simulation's
//     virtual TTI clock, with netem-style one-way delay injection
//     (replacing the Linux netem tool used for the Fig. 9 experiment).
//
// Both meter every serialized message by its protocol category so the
// signaling-overhead experiments (Fig. 7) measure genuine wire bytes.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrameSize bounds a single protocol message on the wire; larger frames
// indicate corruption or abuse and reset the connection.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when a frame header exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")

// ErrFrameCorrupt is returned when a frame's payload fails its checksum.
// Framing stays intact (the declared length was consumed), so a reader may
// count the frame and continue with the next one instead of decoding
// garbage or resetting the connection.
var ErrFrameCorrupt = errors.New("transport: frame checksum mismatch")

// frameHeaderSize is the header size in bytes: a 4-byte big-endian payload
// length followed by a 4-byte CRC-32C (Castagnoli) of the payload. The
// checksum turns bit rot on the path into a counted drop rather than a
// protocol decode of damaged bytes — the gray-failure mode a bare length
// prefix cannot see.
const frameHeaderSize = 8

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one length-prefixed, checksummed frame to dst: the
// header, then the payload appendPayload appends after it, so a message is
// serialized straight into the frame. A payload over MaxFrameSize returns
// ErrFrameTooLarge and only the bytes dst held.
func AppendFrame(dst []byte, appendPayload func([]byte) []byte) ([]byte, error) {
	start := len(dst)
	b := appendPayload(append(dst, 0, 0, 0, 0, 0, 0, 0, 0))
	payload := b[start+frameHeaderSize:]
	if len(payload) > MaxFrameSize {
		return b[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b, nil
}

// ReadFrame reads one length-prefixed frame, reusing buf when it is large
// enough, and verifies the payload checksum. It returns the payload slice
// (which may alias buf), having read the header into buf too, grown to
// the header size if smaller (a local array escapes through io.ReadFull).
// On ErrFrameCorrupt the frame's bytes have been fully consumed and the
// returned slice holds the damaged payload, so the caller can keep its
// buffer and read the next frame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, frameHeaderSize)
	}
	hdr := buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if crc32.Checksum(buf, crcTable) != sum {
		return buf, ErrFrameCorrupt
	}
	return buf, nil
}

// FrameOverhead is the per-message framing cost added on the wire; the
// signaling meters include it, as tcpdump-based measurement would.
const FrameOverhead = frameHeaderSize
