// Package epc is the minimal evolved-packet-core substrate standing in for
// openair-cn in the paper's testbed: it owns the bearer table mapping
// subscribers (IMSIs) to their serving eNodeB/RNTI and routes downlink
// traffic into the right RLC queue, with per-bearer accounting.
//
// The experiments only exercise the S1-U-like user plane (downlink
// injection, uplink sink); mobility anchoring and NAS signaling are out of
// scope for every figure in the paper's evaluation and are therefore not
// modeled.
package epc

import (
	"fmt"
	"sort"

	"flexran/internal/enb"
	"flexran/internal/lte"
)

// Bearer is one default bearer (IMSI to eNodeB/RNTI binding).
type Bearer struct {
	IMSI uint64
	ENB  lte.ENBID
	RNTI lte.RNTI
	// TEID is the GTP tunnel id assigned at setup.
	TEID uint32

	// Accounting.
	DLOffered  uint64 // bytes presented by the traffic source
	DLAccepted uint64 // bytes accepted into the RLC queue

	// enb is the serving eNodeB behind ENB, resolved once at Attach and
	// Handover so per-TTI injection needs no table lookup; nil once the
	// bearer is detached.
	enb *enb.ENB
}

// Downlink forwards bytes down the bearer into the serving eNodeB's RLC
// queue, returning the bytes accepted (the rest were dropped at the RLC
// cap). A caller that holds the bearer injects here directly; EPC.Downlink
// is the same forward behind an IMSI lookup.
func (b *Bearer) Downlink(bytes int) (int, error) {
	if b.enb == nil {
		return 0, fmt.Errorf("epc: bearer of IMSI %d is detached", b.IMSI)
	}
	accepted := b.enb.DLEnqueue(b.RNTI, bytes)
	b.DLOffered += uint64(bytes)
	b.DLAccepted += uint64(accepted)
	return accepted, nil
}

// EPC routes user-plane traffic to registered eNodeBs.
type EPC struct {
	enbs     map[lte.ENBID]*enb.ENB
	bearers  map[uint64]*Bearer
	nextTEID uint32
}

// New returns an empty core.
func New() *EPC {
	return &EPC{
		enbs:     map[lte.ENBID]*enb.ENB{},
		bearers:  map[uint64]*Bearer{},
		nextTEID: 1,
	}
}

// Register connects an eNodeB's S1 interface.
func (c *EPC) Register(e *enb.ENB) {
	c.enbs[e.ID()] = e
}

// Attach creates the default bearer for a subscriber.
func (c *EPC) Attach(imsi uint64, enbID lte.ENBID, rnti lte.RNTI) (*Bearer, error) {
	e, ok := c.enbs[enbID]
	if !ok {
		return nil, fmt.Errorf("epc: unknown eNodeB %d", enbID)
	}
	if _, dup := c.bearers[imsi]; dup {
		return nil, fmt.Errorf("epc: IMSI %d already attached", imsi)
	}
	b := &Bearer{IMSI: imsi, ENB: enbID, RNTI: rnti, TEID: c.nextTEID, enb: e}
	c.nextTEID++
	c.bearers[imsi] = b
	return b, nil
}

// Detach removes a subscriber's bearer.
func (c *EPC) Detach(imsi uint64) {
	if b, ok := c.bearers[imsi]; ok {
		b.enb = nil // a holder of the bearer must not inject past the detach
		delete(c.bearers, imsi)
	}
}

// Downlink routes bytes toward a subscriber, returning the bytes accepted
// by the eNodeB queue (the rest were dropped at the RLC cap).
func (c *EPC) Downlink(imsi uint64, bytes int) (int, error) {
	b, ok := c.bearers[imsi]
	if !ok {
		return 0, fmt.Errorf("epc: no bearer for IMSI %d", imsi)
	}
	return b.Downlink(bytes)
}

// Bearer returns a subscriber's bearer.
func (c *EPC) Bearer(imsi uint64) (*Bearer, bool) {
	b, ok := c.bearers[imsi]
	return b, ok
}

// Bearers lists all bearers ordered by IMSI.
func (c *EPC) Bearers() []*Bearer {
	out := make([]*Bearer, 0, len(c.bearers))
	for _, b := range c.bearers {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IMSI < out[j].IMSI })
	return out
}

// Handover rebinds a subscriber's bearer to a new eNodeB/RNTI (the S1 path
// switch at the end of a handover).
func (c *EPC) Handover(imsi uint64, newENB lte.ENBID, newRNTI lte.RNTI) error {
	b, ok := c.bearers[imsi]
	if !ok {
		return fmt.Errorf("epc: no bearer for IMSI %d", imsi)
	}
	e, ok := c.enbs[newENB]
	if !ok {
		return fmt.Errorf("epc: unknown eNodeB %d", newENB)
	}
	b.ENB, b.RNTI, b.enb = newENB, newRNTI, e
	return nil
}
