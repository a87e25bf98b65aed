package enb

import (
	"reflect"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
)

// rippleReference is the subband CQI formula the ripple table is built
// from, evaluated per subband as the filler once did.
func rippleReference(rnti lte.RNTI, cqi lte.CQI) []uint8 {
	var out []uint8
	if cqi > 0 {
		for sb := 0; sb < SubbandsAt10MHz; sb++ {
			ripple := int(rnti) + sb*7
			v := int(cqi) + ripple%3 - 1
			out = append(out, uint8(max(1, min(v, lte.MaxCQI))))
		}
	}
	return out
}

// fillReference is FillUETable as it was before the ripple became a table:
// the oracle of TestFillUETableMatchesReference.
func fillReference(e *ENB, t *protocol.UETable, flags protocol.StatsFlags) {
	t.Resize(len(e.order))
	h := e.hot
	for i, s := range e.order {
		c := &e.cold[s]
		cqi := int32(h[s].cqi)
		t.RNTI[i] = h[s].rnti
		t.Cell[i] = c.params.Cell
		t.LastSchedSF[i] = h[s].lastSched
		t.PowerHeadroomDB[i] = 40 - 2*cqi
		t.RSRPdBm[i] = -140 + 6*cqi
		t.RSRQdB[i] = -20 + cqi
		if c.params.Group > 0 {
			t.Group[i] = uint32(c.params.Group)
		}
	}
	if flags&protocol.StatsQueues != 0 {
		for i, s := range e.order {
			dlq := uint64(h[s].dlQueue)
			t.DLQueue[i] = dlq
			t.ULQueue[i] = uint64(h[s].ulQueue)
			t.LCID = append(t.LCID, 1, 2, 3)
			t.LCBytes = append(t.LCBytes, uint64(h[s].sigPending), 0, dlq)
			t.LCHoLMs = append(t.LCHoLMs, 0, 0, holDelay(h[s].dlQueue, h[s].avgDL))
			t.LCEnd[i] = uint32(len(t.LCID))
		}
	}
	if flags&protocol.StatsCQI != 0 {
		for i, s := range e.order {
			cqi := h[s].cqi
			t.CQI[i] = cqi
			t.Subbands = append(t.Subbands, rippleReference(h[s].rnti, cqi)...)
			t.SubbandEnd[i] = uint32(len(t.Subbands))
		}
	}
	if flags&protocol.StatsRates != 0 {
		for i, s := range e.order {
			t.DLRateKbps[i] = uint32(h[s].avgDL)
			t.ULRateKbps[i] = uint32(h[s].avgUL)
		}
	}
	if flags&protocol.StatsHARQ != 0 {
		for i, s := range e.order {
			t.HARQRetx[i] = e.cold[s].harqRetx
		}
	}
}

// TestSubbandRippleMatchesFormula checks the table against the formula for
// every RNTI residue (through RNTIs on both sides of a multiple of three,
// small and near the top of the range) and every CQI a channel can hand
// over, in range or not: CQI 0 appends nothing.
func TestSubbandRippleMatchesFormula(t *testing.T) {
	var rntis []lte.RNTI
	for r := 0; r < 300; r++ {
		rntis = append(rntis, lte.RNTI(r), lte.RNTI(0xffff-r))
	}
	for _, rnti := range rntis {
		for cqi := 0; cqi <= 0xff; cqi++ {
			got, want := subbandCQIs(rnti, lte.CQI(cqi)), rippleReference(rnti, lte.CQI(cqi))
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("RNTI %d CQI %d: subbands %v, want %v", rnti, cqi, got, want)
			}
		}
	}
}

// TestFillUETableMatchesReference fills a warmed 32-UE eNodeB's report
// under every combination of the five report flags — into a fresh table
// and into one reused from the previous combination — and requires the
// filler to write exactly what the per-subband formula wrote.
func TestFillUETableMatchesReference(t *testing.T) {
	e := New(Config{ID: 1, Seed: 7})
	var rntis []lte.RNTI
	for u := 0; u < 32; u++ {
		var ch radio.Model = radio.NewGaussMarkov(1+float64(u%15), 0.9, 2.5, int64(u+1))
		switch u {
		case 0:
			ch = radio.Fixed(0) // reports no subbands
		case 1:
			ch = radio.Fixed(lte.MaxCQI)
		}
		rnti, err := e.AddUE(UEParams{IMSI: uint64(u + 1), Cell: 0, Channel: ch, Group: u % 4})
		if err != nil {
			t.Fatal(err)
		}
		rntis = append(rntis, rnti)
	}
	for sf := 0; sf < 400; sf++ {
		for i, r := range rntis {
			if (sf+i)%3 == 0 {
				e.DLEnqueue(r, 500*(i%7))
			}
			if (sf+i)%11 == 0 {
				e.ULEnqueue(r, 200*(i%5))
			}
		}
		e.Step()
	}
	var got, reused, want protocol.UETable
	for flags := protocol.StatsFlags(0); flags <= protocol.StatsAll; flags++ {
		got, want = protocol.UETable{}, protocol.UETable{}
		e.FillUETable(&got, flags)
		e.FillUETable(&reused, flags)
		fillReference(e, &want, flags)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flags %05b: filled\n%+v\nwant\n%+v", flags, got, want)
		}
		var r protocol.UETable
		r.CopyFrom(&reused)
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("flags %05b: refilled table\n%+v\nwant\n%+v", flags, r, want)
		}
		if flags&protocol.StatsCQI != 0 && len(got.Subbands) != 31*SubbandsAt10MHz {
			t.Fatalf("flags %05b: %d subband CQIs, want 31 UEs' worth", flags, len(got.Subbands))
		}
	}
}
