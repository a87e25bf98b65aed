package controller

import (
	"fmt"
	"strconv"

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
//
// A Context is valid only during the callback or Master.Do operation it was
// passed to: the master reuses one for every cycle, so an app must not keep it.
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
	up.Sign(c.master.opts.TrustKey)
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
	up.Sign(c.master.opts.TrustKey)
	return c.master.sendCmd(enb, up)
}

// PushPolicy sends a policy reconfiguration document.
func (c *Context) PushPolicy(enb lte.ENBID, doc string) (uint64, error) {
	return c.master.sendCmd(enb, &protocol.PolicyReconf{Doc: doc})
}

// ActivateVSF sends the minimal policy document that swaps one VSF's
// behavior (the runtime scheduler swap of §5.4).
func (c *Context) ActivateVSF(enb lte.ENBID, module, vsf, name string) (uint64, error) {
	b := c.policyHead(module, vsf)
	b = append(b, "    behavior: "...)
	b = append(b, yamlite.Quote(name)...)
	return c.pushDoc(enb, append(b, '\n'))
}

// policyHead starts a policy document addressed to one VSF in the master's
// document buffer, which only the tick goroutine writes: the module and VSF
// keys, written as given, as the agent's tables name them.
func (c *Context) policyHead(module, vsf string) []byte {
	b := append(c.master.docBuf[:0], module...)
	b = append(b, ":\n  "...)
	b = append(b, vsf...)
	return append(b, ":\n"...)
}

// pushDoc keeps b as the master's document buffer and sends its text: the
// string is the one allocation a document costs.
func (c *Context) pushDoc(enb lte.ENBID, b []byte) (uint64, error) {
	c.master.docBuf = b
	return c.PushPolicy(enb, string(b))
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

// ApplyShares pushes a share plan to an agent's slicing VSF, as an
// rb_share policy parameter the agent writes into its active slicer. Its
// callers are the share actuator of internal/apps/broker (behind both the
// slice broker and the scripted RAN-sharing plan) and the northbound
// /slice-shares escape hatch. The vector is validated before anything is
// sent; with reliable delivery enabled the returned sequence number is the
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
	b := c.policyHead(module, vsf)
	b = append(b, "    parameters:\n      rb_share: ["...)
	for i, s := range plan.Shares {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendFloat(b, s, 'g', -1, 64)
	}
	return c.pushDoc(enb, append(b, "]\n"...))
}
