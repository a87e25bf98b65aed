package lte

// This file holds the link-adaptation tables: CQI to MCS and the transport
// block sizing used by the MAC simulator.
//
// Calibration note: transport block sizes are derived from per-CQI "bits
// per PRB per TTI" densities. The densities follow the 36.213
// spectral-efficiency curve but are calibrated so that the simulated stack
// reproduces the OAI/USRP-B210 numbers measured in the FlexRAN paper:
// ~25 Mb/s DL UDP and ~8 Mb/s UL at CQI 15 over 10 MHz/TM1 (Fig. 6b), and
// the TCP goodputs of Table 2 (CQI 2/3/4/10 -> 1.63/2.2/3.3/15 Mb/s) given
// the simulator's TCP efficiency factor.

// cqiToMCS maps a reported CQI to the MCS the scheduler selects for it.
// QPSK for CQI 1-6, 16QAM for 7-9, 64QAM for 10-15, following the usual
// conservative mapping used by open-source stacks.
var cqiToMCS = [MaxCQI + 1]MCS{
	0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 28,
}

// MCSForCQI returns the MCS a link-adapting scheduler picks for a CQI.
func MCSForCQI(c CQI) MCS {
	if !c.Valid() {
		c = MaxCQI
	}
	return cqiToMCS[c]
}

// CQIForMCS returns the lowest CQI whose mapped MCS is >= m (MaxCQI when
// none is); it is the inverse used when validating a commanded MCS
// against channel state.
func CQIForMCS(m MCS) CQI { return mcsToCQI[m] }

// mcsToCQI is CQIForMCS for every MCS value, not only 0..MaxMCS: a remote
// scheduler's allocation arrives off the wire with any uint8. Each CQI
// claims the MCS values up to its own, from the highest CQI down, so the
// lowest claimant of each entry is the one left.
var mcsToCQI = func() (t [1 << 8]CQI) {
	for m := range t {
		t[m] = MaxCQI
	}
	for c := MaxCQI; c >= 0; c-- {
		for m := 0; m <= int(cqiToMCS[c]); m++ {
			t[m] = CQI(c)
		}
	}
	return t
}()

// dlBitsPerPRB is the calibrated downlink MAC throughput density:
// transport-block bits carried by one PRB in one TTI at each CQI.
var dlBitsPerPRB = [MaxCQI + 1]int{
	0, 20, 36, 49, 73, 107, 143, 180, 234, 294, 333, 405, 476, 510, 535, 550,
}

// ulFactor scales the DL density to uplink (SC-FDMA, fewer data REs and the
// B210-class platform limit of ~8 Mb/s at CQI 15 in the paper).
const ulFactor = 0.32

// TBSBits returns the transport block size in bits for scheduling nPRB
// resource blocks at the given CQI in one TTI. The result is floored to a
// whole number of bytes (MAC PDUs are byte aligned).
func TBSBits(dir Direction, c CQI, nPRB int) int {
	if nPRB <= 0 || !c.Valid() || c == 0 {
		return 0
	}
	bits := dlBitsPerPRB[c] * nPRB
	if dir == Uplink {
		bits = int(float64(bits) * ulFactor)
	}
	return bits / 8 * 8
}

// TBSBytes is TBSBits expressed in bytes.
func TBSBytes(dir Direction, c CQI, nPRB int) int {
	return TBSBits(dir, c, nPRB) / 8
}

// PeakRateMbps returns the MAC-layer peak rate in Mb/s for a full
// allocation of the given bandwidth at the given CQI.
func PeakRateMbps(dir Direction, c CQI, bw Bandwidth) float64 {
	return float64(TBSBits(dir, c, bw.PRBs())) * TTIsPerSecond / 1e6
}

// BLER returns the block error probability of a transport block sent with
// an MCS chosen for cqiChosen while the actual channel is cqiActual, on the
// (retx+1)-th HARQ attempt. Transmitting at or below the channel's CQI
// meets the standard 10% initial BLER target; every CQI step of
// overestimation roughly doubles-to-saturates the error rate, and each HARQ
// retransmission recovers one step of margin (chase combining).
func BLER(cqiChosen, cqiActual CQI, retx int) float64 {
	diff := int(cqiChosen) - int(cqiActual) - retx
	switch {
	case diff <= 0:
		if retx > 0 {
			return 0.01 // combined retransmissions almost always decode
		}
		return 0.10
	case diff == 1:
		return 0.50
	case diff == 2:
		return 0.85
	default:
		return 0.99
	}
}
