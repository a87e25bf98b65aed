package protocol

import (
	"flexran/internal/lte"
	"flexran/internal/wire"
)

// StatsMode selects the reporting pattern of a statistics subscription
// (paper §4.3.1 "eNodeB Report and Event Management").
type StatsMode uint8

// Reporting modes.
const (
	// StatsOneOff replies once to the request.
	StatsOneOff StatsMode = iota
	// StatsPeriodic replies every PeriodTTI subframes.
	StatsPeriodic
	// StatsTriggered replies only when report contents change.
	StatsTriggered
)

func (m StatsMode) String() string {
	switch m {
	case StatsOneOff:
		return "one-off"
	case StatsPeriodic:
		return "periodic"
	case StatsTriggered:
		return "triggered"
	}
	return "unknown"
}

// StatsFlags is a bitmask selecting report contents.
type StatsFlags uint32

// Report content flags.
const (
	StatsQueues StatsFlags = 1 << iota // RLC transmission queue sizes
	StatsCQI                           // wideband CQI per UE
	StatsRates                         // smoothed MAC rates per UE
	StatsHARQ                          // HARQ retransmission counters
	StatsCell                          // cell-level PRB utilization

	// StatsAll selects every report component.
	StatsAll = StatsQueues | StatsCQI | StatsRates | StatsHARQ | StatsCell
)

// StatsRequest subscribes the master to reports from an agent.
type StatsRequest struct {
	// ID names the subscription; replies echo it and a later request
	// with the same ID replaces the subscription (PeriodTTI 0 with mode
	// periodic cancels it).
	ID        uint32
	Mode      StatsMode
	PeriodTTI uint32
	Flags     StatsFlags
}

var statsRequestFields = newFields(
	uintF(1, "id", func(p *StatsRequest) *uint32 { return &p.ID }),
	uintF(2, "mode", func(p *StatsRequest) *StatsMode { return &p.Mode }),
	uintF(3, "period_tti", func(p *StatsRequest) *uint32 { return &p.PeriodTTI }),
	uintF(4, "flags", func(p *StatsRequest) *StatsFlags { return &p.Flags }),
)

// Kind, MarshalWire and UnmarshalWire implement Payload through statsRequestFields.
func (*StatsRequest) Kind() Kind                    { return KindStatsRequest }
func (p *StatsRequest) MarshalWire(e *wire.Encoder) { statsRequestFields.marshal(p, e) }
func (p *StatsRequest) UnmarshalWire(d *wire.Decoder) error {
	return statsRequestFields.unmarshal(p, d)
}

// LCReport is the per-logical-channel queue component of a UE report
// (SRB1/SRB2/DRB status, as the OAI agent reports per bearer).
type LCReport struct {
	LCID       uint8
	Bytes      uint64 // pending bytes on this logical channel
	HoLDelayMs uint32 // head-of-line delay estimate
}

// UEStats is the per-UE component of a statistics report: buffer status
// reports, wideband and per-subband channel quality, rate information and
// L3 measurements (Table 1 "Statistics"). The breadth mirrors the OAI
// agent's per-TTI MAC report, which is why statistics dominate the
// agent-to-master signaling volume in Fig. 7a. It is the row type of a
// UETable — reports carry the table, not a list of these — and what the
// RIB keeps per UE and hands to applications.
type UEStats struct {
	RNTI        lte.RNTI
	Cell        lte.CellID
	CQI         lte.CQI
	DLQueue     uint64 // RLC transmission queue, bytes
	ULQueue     uint64 // UE buffer status report, bytes
	DLRateKbps  uint32 // smoothed served DL rate
	ULRateKbps  uint32
	HARQRetx    uint32 // cumulative retransmissions
	LastSchedSF lte.Subframe
	// SubbandCQI holds the per-subband CQIs (13 subbands at 10 MHz).
	SubbandCQI []uint8
	// LCs reports per-logical-channel queue state.
	LCs []LCReport
	// PowerHeadroomDB is the UE's reported power headroom.
	PowerHeadroomDB int32
	// RSRPdBm / RSRQdB are the L3 measurements used by mobility managers.
	RSRPdBm int32
	RSRQdB  int32
	// Group is the UE's slice-group label (the operator/slice index the
	// agent-side slicing scheduler keys on). Zero is the default group; a
	// report whose UEs are all in it — a deployment without slicing —
	// carries no group column at all.
	Group int
}

// CopyFrom deep-copies src into s, reusing s's slice capacity: the RIB's
// readers hand out copies, never aliases of the RIB's own storage, which
// the updater overwrites in place.
func (s *UEStats) CopyFrom(src *UEStats) {
	sb, lcs := s.SubbandCQI, s.LCs
	*s = *src
	s.SubbandCQI = append(sb[:0], src.SubbandCQI...)
	s.LCs = append(lcs[:0], src.LCs...)
}

// CellStats is the per-cell component of a statistics report.
type CellStats struct {
	Cell     lte.CellID
	UsedPRB  uint32 // PRBs allocated in the reported subframe
	TotalPRB uint32
	ABS      bool // whether the reported subframe was almost-blank
}

// MarshalWire implements wire.Marshaler.
func (s *CellStats) MarshalWire(e *wire.Encoder) {
	e.Uint(1, uint64(s.Cell))
	e.Uint(2, uint64(s.UsedPRB))
	e.Uint(3, uint64(s.TotalPRB))
	e.Bool(4, s.ABS)
}

// UnmarshalWire implements wire.Unmarshaler. Every field is a varint, so the
// value is read before the number is looked at; a field of another wire type
// is one a newer peer added, and is skipped.
func (s *CellStats) UnmarshalWire(d *wire.Decoder) error {
	return eachField(d, func(f int) error {
		if d.WireType() != wire.TVarint {
			return d.Skip()
		}
		v, err := d.ReadUint()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			return narrow(&s.Cell, v)
		case 2:
			return narrow(&s.UsedPRB, v)
		case 3:
			return narrow(&s.TotalPRB, v)
		case 4:
			s.ABS = v != 0
		}
		return nil
	})
}

// StatsReply carries one report for a subscription. Per-UE entries are
// aggregated into a single message — the paper attributes the sublinear
// growth of agent-to-master overhead (Fig. 7a) to exactly this aggregation
// — and within it into one columnar block (see UETable).
type StatsReply struct {
	ID    uint32
	SF    lte.Subframe
	UEs   UETable
	Cells []CellStats
}

// Kind implements Payload.
func (*StatsReply) Kind() Kind { return KindStatsReply }

// reset is the kind's pool reset (kinds table). The table and the cells
// are truncated, not dropped: their capacity is reused by the next decode.
func (p *StatsReply) reset() {
	p.ID, p.SF = 0, 0
	p.UEs.Resize(0)
	p.Cells = p.Cells[:0]
}

// StatsReply wire fields. Field 3 carried one nested message per UE before
// the columnar block; it is retired and must not be reused.
const (
	statsID    = 1
	statsSF    = 2
	statsCells = 4
	statsUEs   = 5
)

// MarshalWire implements wire.Marshaler.
func (p *StatsReply) MarshalWire(e *wire.Encoder) {
	e.Uint(statsID, uint64(p.ID))
	e.Uint(statsSF, uint64(p.SF))
	for i := range p.Cells {
		e.Message(statsCells, &p.Cells[i])
	}
	if p.UEs.Len() > 0 {
		e.Message(statsUEs, &p.UEs)
	}
}

// UnmarshalWire implements wire.Unmarshaler.
func (p *StatsReply) UnmarshalWire(d *wire.Decoder) error {
	return eachField(d, func(f int) error {
		switch f {
		case statsID:
			return readUint(d, &p.ID)
		case statsSF:
			return readUint(d, &p.SF)
		case statsCells:
			var c *CellStats
			p.Cells, c = grow(p.Cells)
			*c = CellStats{}
			return d.ReadMessage(c)
		case statsUEs:
			return d.ReadMessage(&p.UEs)
		}
		return d.Skip()
	})
}
