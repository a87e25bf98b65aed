package controller

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/sched"
	"flexran/internal/vsfdsl"
	"flexran/internal/wire"
	"flexran/internal/yamlite"
)

// Context is the northbound API handed to applications on every tick and
// event: read access to the RIB and the command/delegation paths toward
// agents. The current implementation — like the paper's (§4.3.3) — exposes
// the raw RIB records rather than higher-level abstractions.
type Context struct {
	master *Master
	// Now is the master's cycle counter when the callback fired.
	Now lte.Subframe
}

// RIB returns the information base for reading.
func (c *Context) RIB() *RIB { return c.master.rib }

// Send issues a command or request to an agent. With reliable delivery
// enabled (Options.CmdRetryTTI), command-kind payloads are sequenced and
// retransmitted until acknowledged; the assigned sequence number is
// returned directly (0 for non-sequenced payloads) — the caller's handle
// for correlating a later ControlAck or cmd_failed event. Returning it
// from the issuing call keeps the correlation race-free: there is no
// shared "last sequence" register to read after the fact.
func (c *Context) Send(enb lte.ENBID, p protocol.Payload) (uint64, error) {
	return c.master.sendCmd(enb, p)
}

// ScheduleDL pushes a downlink scheduling decision to an agent for a
// target subframe (the centralized scheduling command path).
func (c *Context) ScheduleDL(enb lte.ENBID, cellID lte.CellID, target lte.Subframe, allocs []sched.Alloc) error {
	p := &protocol.DLSchedule{Cell: cellID, TargetSF: target}
	for _, a := range allocs {
		p.Allocs = append(p.Allocs, protocol.Alloc{
			RNTI: a.RNTI, RBStart: uint16(a.RBStart), RBCount: uint16(a.RBCount), MCS: a.MCS,
		})
	}
	return c.master.Send(enb, p)
}

// CommandHandover orders the serving agent to hand a UE over to a target
// cell (the mobility-management command path of Table 1). Returns the
// assigned command sequence number (see Send).
func (c *Context) CommandHandover(serving lte.ENBID, rnti lte.RNTI, imsi uint64, target lte.ENBID, targetCell lte.CellID) (uint64, error) {
	return c.master.sendCmd(serving, &protocol.HandoverCommand{
		RNTI: rnti, IMSI: imsi, TargetENB: target, TargetCell: targetCell,
	})
}

// PushNativeVSF pushes a reference to the agent's built-in VSF store,
// signed with the deployment trust key.
func (c *Context) PushNativeVSF(enb lte.ENBID, module, vsf, name, ref string) (uint64, error) {
	up := &protocol.VSFUpdate{
		Module: module, VSF: vsf, Name: name,
		VSFKind: protocol.VSFNative, Ref: ref,
	}
	signUpdate(c.master.opts.TrustKey, up)
	return c.master.sendCmd(enb, up)
}

// PushProgramVSF compiles a vsfdsl expression against the agent's MAC
// variable environment, signs the bytecode and pushes it (VSF updation
// with real code over the wire).
func (c *Context) PushProgramVSF(enb lte.ENBID, module, vsf, name, expr string, vars []string) (uint64, error) {
	prog, err := vsfdsl.Compile(expr, vars)
	if err != nil {
		return 0, fmt.Errorf("controller: compiling VSF %q: %w", name, err)
	}
	up := &protocol.VSFUpdate{
		Module: module, VSF: vsf, Name: name,
		VSFKind: protocol.VSFProgram, Program: wire.Marshal(prog),
	}
	signUpdate(c.master.opts.TrustKey, up)
	return c.master.sendCmd(enb, up)
}

// PushPolicy sends a policy reconfiguration document.
func (c *Context) PushPolicy(enb lte.ENBID, doc string) (uint64, error) {
	return c.master.sendCmd(enb, &protocol.PolicyReconf{Doc: doc})
}

// ActivateVSF sends the minimal policy document that swaps one VSF's
// behavior (the runtime scheduler swap of §5.4).
func (c *Context) ActivateVSF(enb lte.ENBID, module, vsf, name string) (uint64, error) {
	doc := yamlite.Marshal(yamlite.Map().Set(module, yamlite.Map().
		Set(vsf, yamlite.Map().Set("behavior", yamlite.Scalar(name)))))
	return c.PushPolicy(enb, doc)
}

// SharePlan is one typed share actuation: the slicing VSF addressed and
// the per-group PRB fraction vector, indexed by UE-group label. Zero
// Module/VSF select the MAC downlink slicer, the one place agent-side
// slicing lives today.
type SharePlan struct {
	Module string
	VSF    string
	Shares []float64
}

// ApplyShares pushes a share plan to an agent's slicing VSF — the single
// typed actuation path every share-writing caller (the slice broker, the
// RANSharing static adapter, the northbound /slice-shares escape
// hatch) goes through. The vector is validated before anything is sent;
// with reliable delivery enabled the returned sequence number is the
// caller's handle for awaiting the outcome. A push toward an unbound
// agent fails with an error wrapping ErrNoSession — lost, not deferred.
func (c *Context) ApplyShares(enb lte.ENBID, plan SharePlan) (uint64, error) {
	if err := sched.ValidateShares(plan.Shares); err != nil {
		return 0, err
	}
	module, vsf := plan.Module, plan.VSF
	if module == "" {
		module = "mac"
	}
	if vsf == "" {
		vsf = "dl_ue_sched"
	}
	seq := yamlite.Seq()
	for _, s := range plan.Shares {
		seq = yamlite.Seq(append(seq.Items(), yamlite.Scalar(s))...)
	}
	doc := yamlite.Marshal(yamlite.Map().Set(module, yamlite.Map().
		Set(vsf, yamlite.Map().
			Set("parameters", yamlite.Map().Set("rb_share", seq)))))
	return c.PushPolicy(enb, doc)
}

// signUpdate mirrors agent.Sign (the two packages share the protocol, not
// code; the digest definition is part of the wire contract).
func signUpdate(key string, up *protocol.VSFUpdate) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(up.Module))
	h.Write([]byte{0})
	h.Write([]byte(up.VSF))
	h.Write([]byte{0})
	h.Write([]byte(up.Name))
	h.Write([]byte{0, byte(up.VSFKind)})
	h.Write([]byte(up.Ref))
	h.Write([]byte{0})
	h.Write(up.Program)
	sig := make([]byte, 8)
	binary.BigEndian.PutUint64(sig, h.Sum64())
	up.Signature = sig
}
