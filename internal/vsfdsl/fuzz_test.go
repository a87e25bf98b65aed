package vsfdsl

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"

	"flexran/internal/wire"
)

// TestWireRejectsOutOfRangeArgument: an instruction argument that int32
// cannot hold is wire.ErrRange. Truncated, "x + 1" with its load slot sent
// as 2^32 would load slot 0 and verify.
func TestWireRejectsOutOfRangeArgument(t *testing.T) {
	frame := func(slot int64) []byte {
		var e wire.Encoder
		e.String(fldSource, "x + 1")
		e.String(fldVar, "x")
		e.Float(fldConst, 1)
		var code []byte
		for _, in := range [][2]int64{{int64(opLoad), slot}, {int64(opConst), 0}, {int64(opAdd), 0}} {
			code = wire.AppendUvarint(code, uint64(in[0]))
			code = wire.AppendUvarint(code, wire.Zigzag(in[1]))
		}
		e.BytesField(fldCode, code)
		return bytes.Clone(e.Bytes())
	}
	var p Program
	if err := wire.Unmarshal(frame(0), &p); err != nil {
		t.Fatalf("slot 0: %v", err)
	}
	for _, slot := range []int64{1 << 32, 1 << 31, -1<<31 - 1} {
		err := wire.Unmarshal(frame(slot), &p)
		switch {
		case err == nil:
			v, _ := p.Eval([]float64{41})
			t.Errorf("slot %d: decoded, and evaluates to %v; want wire.ErrRange", slot, v)
		case !errors.Is(err, wire.ErrRange):
			t.Errorf("slot %d: %v, want wire.ErrRange", slot, err)
		}
	}
}

// FuzzProgramDecode holds the decoder to the sandbox promise: whatever bytes
// arrive as a VSF program, either they are refused, or the program runs on
// an environment of its own size without panicking, and re-encodes to bytes
// that decode to the same program. (The encoding is a function of every
// field, so equal bytes are an equal program, NaN constants included.)
func FuzzProgramDecode(f *testing.F) {
	for _, cases := range []map[string]float64{arithmeticCases, logicCases, functionCases} {
		for _, src := range slices.Sorted(maps.Keys(cases)) {
			f.Add(wire.Marshal(MustCompile(src, nil)))
		}
	}
	for _, c := range []struct {
		src  string
		vars []string
	}{
		{"x > 10 ? 1 : x > 5 ? 2 : 3", []string{"x"}},
		{"queue > 0 ? inst_rate / max(avg_rate, 0.01) : -(cqi + 1)", []string{"queue", "inst_rate", "avg_rate", "cqi"}},
		{"a*b + c*d - min(a, d)", []string{"a", "b", "c", "d"}},
		{"x >= t ? hi : lo", []string{"x", "t", "hi", "lo"}},
		{"x > 0 ? min(x, 5) : 0", []string{"x"}},
	} {
		f.Add(wire.Marshal(MustCompile(c.src, c.vars)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Program
		if wire.Unmarshal(data, &p) != nil {
			return
		}
		if _, err := p.EvalStack(make([]float64, len(p.Vars())), make([]float64, p.MaxStack())); err != nil {
			t.Fatalf("verified program fails to run: %v", err)
		}
		enc := wire.Marshal(&p)
		var q Program
		if err := wire.Unmarshal(enc, &q); err != nil {
			t.Fatalf("re-encoded program does not decode: %v\n%s", err, p.Disassemble())
		}
		if again := wire.Marshal(&q); !bytes.Equal(again, enc) {
			t.Fatalf("re-decoded program differs:\n first %x\nsecond %x", enc, again)
		}
	})
}
