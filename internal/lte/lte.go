// Package lte holds the 3GPP LTE constants, identifier types and
// frame-structure arithmetic shared by the eNodeB data-plane simulator, the
// FlexRAN agent and the master controller.
//
// Everything here is deliberately free of simulation state: it is the "paper
// math" layer (bandwidth to PRB mapping, CQI to MCS to transport-block-size
// translation, subframe/frame numbering) that the rest of the system builds
// on. Transport block sizing follows the spectral-efficiency approach of
// 3GPP TS 36.213 Table 7.2.3-1, calibrated against the OAI/B210 throughput
// measurements reported in the FlexRAN paper (see tables.go).
package lte

import "fmt"

// TTI is the LTE Transmission Time Interval: one subframe, 1 ms.
// All simulated time in this repository is counted in TTIs.
const (
	// SubframesPerFrame is the number of subframes in one radio frame.
	SubframesPerFrame = 10
	// TTIsPerSecond is the number of TTIs in one second of air time.
	TTIsPerSecond = 1000
	// MaxCQI is the highest Channel Quality Indicator value (36.213).
	MaxCQI = 15
	// MaxMCS is the highest Modulation and Coding Scheme index.
	MaxMCS = 28
	// MaxHARQRetx is the maximum number of HARQ retransmissions before
	// the transport block is dropped to RLC.
	MaxHARQRetx = 4
)

// CQI is a Channel Quality Indicator in [0, 15]. CQI 0 means out of range.
type CQI uint8

// Valid reports whether the CQI is within the 3GPP range.
func (c CQI) Valid() bool { return c <= MaxCQI }

// Clamp returns the CQI limited to the valid [0, MaxCQI] range.
func (c CQI) Clamp() CQI {
	if c > MaxCQI {
		return MaxCQI
	}
	return c
}

// MCS is a Modulation and Coding Scheme index in [0, 28].
type MCS uint8

// RNTI is a Radio Network Temporary Identifier addressing one UE in a cell.
type RNTI uint16

// FirstUERNTI is the first C-RNTI handed out by the simulator; the values
// below it are reserved (36.321 §7.1).
const FirstUERNTI RNTI = 0x46

// CellID identifies one cell within an eNodeB.
type CellID uint16

// ENBID identifies one eNodeB (and thus one FlexRAN agent).
type ENBID uint32

// Subframe is an absolute subframe (TTI) counter since simulation start.
// It never wraps; the 10 ms radio-frame structure is derived from it.
type Subframe uint64

// NeverSF is a subframe value beyond any reachable simulation time, used
// as the "no pending work" sentinel by the idle fast-forward machinery.
// It is far below the uint64 ceiling so adding small offsets cannot wrap.
const NeverSF Subframe = 1 << 62

// SFN returns the System Frame Number (mod 1024, as broadcast in MIB).
func (s Subframe) SFN() uint16 { return uint16(s / SubframesPerFrame % 1024) }

// Index returns the subframe index within its radio frame, in [0, 9].
func (s Subframe) Index() uint8 { return uint8(s % SubframesPerFrame) }

// Seconds returns the absolute air time of the subframe in seconds.
func (s Subframe) Seconds() float64 { return float64(s) / TTIsPerSecond }

func (s Subframe) String() string {
	return fmt.Sprintf("sf %d (sfn %d.%d)", uint64(s), s.SFN(), s.Index())
}

// Bandwidth is a channel bandwidth option, expressed in 100 kHz units to
// stay integral (so 10 MHz == Bandwidth(100)).
type Bandwidth uint16

// The standard E-UTRA channel bandwidths.
const (
	BW1Dot4MHz Bandwidth = 14
	BW3MHz     Bandwidth = 30
	BW5MHz     Bandwidth = 50
	BW10MHz    Bandwidth = 100
	BW15MHz    Bandwidth = 150
	BW20MHz    Bandwidth = 200
)

// PRBs returns the number of physical resource blocks for the bandwidth
// (36.101 Table 5.6-1). Unknown bandwidths return 0.
func (b Bandwidth) PRBs() int {
	switch b {
	case BW1Dot4MHz:
		return 6
	case BW3MHz:
		return 15
	case BW5MHz:
		return 25
	case BW10MHz:
		return 50
	case BW15MHz:
		return 75
	case BW20MHz:
		return 100
	}
	return 0
}

// MHz returns the bandwidth in MHz as a float (for display).
func (b Bandwidth) MHz() float64 { return float64(b) / 10 }

func (b Bandwidth) String() string { return fmt.Sprintf("%.1fMHz", b.MHz()) }

// Duplex is the duplexing mode of a cell.
type Duplex uint8

// Duplex modes.
const (
	FDD Duplex = iota
	TDD
)

func (d Duplex) String() string {
	if d == TDD {
		return "TDD"
	}
	return "FDD"
}

// TransmissionMode is the LTE downlink transmission mode (36.213 §7.1).
// The paper's evaluation uses TM1 (single antenna port).
type TransmissionMode uint8

// Direction distinguishes downlink from uplink.
type Direction uint8

// Link directions.
const (
	Downlink Direction = iota
	Uplink
)

func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}
