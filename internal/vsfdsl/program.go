package vsfdsl

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"flexran/internal/wire"
)

// opcode is one VM instruction.
type opcode uint8

const (
	opConst opcode = iota // push consts[arg]
	opLoad                // push env[arg]
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opNeg
	opNot
	opLt
	opGt
	opLe
	opGe
	opEq
	opNe
	opAnd
	opOr
	opJump     // pc = arg
	opJumpIfZ  // pop; if zero pc = arg
	opCall     // call builtins[arg]
	opLastPlus // sentinel, never emitted
)

var opNames = [...]string{
	"const", "load", "add", "sub", "mul", "div", "mod", "neg", "not",
	"lt", "gt", "le", "ge", "eq", "ne", "and", "or", "jump", "jz", "call",
}

type instr struct {
	op  opcode
	arg int32
}

// builtin is a pure function callable from the DSL.
type builtin struct {
	name  string
	arity int
	fn    func(args []float64) float64
}

var builtins = []builtin{
	{"min", 2, func(a []float64) float64 { return math.Min(a[0], a[1]) }},
	{"max", 2, func(a []float64) float64 { return math.Max(a[0], a[1]) }},
	{"abs", 1, func(a []float64) float64 { return math.Abs(a[0]) }},
	{"floor", 1, func(a []float64) float64 { return math.Floor(a[0]) }},
	{"ceil", 1, func(a []float64) float64 { return math.Ceil(a[0]) }},
	{"sqrt", 1, func(a []float64) float64 { return math.Sqrt(a[0]) }},
	{"log", 1, func(a []float64) float64 { return math.Log(a[0]) }},
	{"exp", 1, func(a []float64) float64 { return math.Exp(a[0]) }},
	{"pow", 2, func(a []float64) float64 { return math.Pow(a[0], a[1]) }},
	{"clamp", 3, func(a []float64) float64 {
		return math.Min(math.Max(a[0], a[1]), a[2])
	}},
}

func builtinIndex(name string) int {
	for i, b := range builtins {
		if b.name == name {
			return i
		}
	}
	return -1
}

// Program is a compiled, verified VSF expression. It is immutable after
// compilation/decoding and safe for concurrent Eval calls.
type Program struct {
	source   string
	vars     []string
	consts   []float64
	code     []instr
	maxStack int
}

// Source returns the original expression text.
func (p *Program) Source() string { return p.source }

// Vars returns the variable names the program binds, in slot order.
func (p *Program) Vars() []string { return append([]string(nil), p.vars...) }

// MaxStack returns the verified maximum operand-stack depth.
func (p *Program) MaxStack() int { return p.maxStack }

// Compile parses, compiles and verifies src. vars lists the variable names
// the execution environment provides, in slot order; referencing any other
// identifier is a compile error (this is the sandbox's name-binding gate).
func Compile(src string, vars []string) (*Program, error) {
	ast, err := parse(src)
	if err != nil {
		return nil, err
	}
	slot := make(map[string]int, len(vars))
	for i, v := range vars {
		if _, dup := slot[v]; dup {
			return nil, fmt.Errorf("vsfdsl: duplicate variable %q", v)
		}
		slot[v] = i
	}
	c := &compiler{slots: slot}
	if err := c.emit(ast); err != nil {
		return nil, err
	}
	p := &Program{
		source: src,
		vars:   append([]string(nil), vars...),
		consts: c.consts,
		code:   c.code,
	}
	if err := p.verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustCompile is Compile that panics on error, for static expressions.
func MustCompile(src string, vars []string) *Program {
	p, err := Compile(src, vars)
	if err != nil {
		panic(err)
	}
	return p
}

type compiler struct {
	slots  map[string]int
	consts []float64
	code   []instr
}

func (c *compiler) constIndex(v float64) int32 {
	for i, existing := range c.consts {
		if existing == v || (math.IsNaN(existing) && math.IsNaN(v)) {
			return int32(i)
		}
	}
	c.consts = append(c.consts, v)
	return int32(len(c.consts) - 1)
}

func (c *compiler) add(op opcode, arg int32) int {
	c.code = append(c.code, instr{op, arg})
	return len(c.code) - 1
}

func (c *compiler) emit(n node) error {
	switch n := n.(type) {
	case numNode:
		c.add(opConst, c.constIndex(n.v))
	case varNode:
		i, ok := c.slots[n.name]
		if !ok {
			return fmt.Errorf("vsfdsl: unknown variable %q", n.name)
		}
		c.add(opLoad, int32(i))
	case unaryNode:
		if err := c.emit(n.x); err != nil {
			return err
		}
		if n.op == "-" {
			c.add(opNeg, 0)
		} else {
			c.add(opNot, 0)
		}
	case binaryNode:
		if err := c.emit(n.l); err != nil {
			return err
		}
		if err := c.emit(n.r); err != nil {
			return err
		}
		ops := map[string]opcode{
			"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
			"<": opLt, ">": opGt, "<=": opLe, ">=": opGe,
			"==": opEq, "!=": opNe, "&&": opAnd, "||": opOr,
		}
		op, ok := ops[n.op]
		if !ok {
			return fmt.Errorf("vsfdsl: internal: operator %q", n.op)
		}
		c.add(op, 0)
	case ternaryNode:
		if err := c.emit(n.cond); err != nil {
			return err
		}
		jz := c.add(opJumpIfZ, 0)
		if err := c.emit(n.then); err != nil {
			return err
		}
		j := c.add(opJump, 0)
		c.code[jz].arg = int32(len(c.code))
		if err := c.emit(n.els); err != nil {
			return err
		}
		c.code[j].arg = int32(len(c.code))
	case callNode:
		bi := builtinIndex(n.fn)
		if bi < 0 {
			return fmt.Errorf("vsfdsl: unknown function %q", n.fn)
		}
		if len(n.args) != builtins[bi].arity {
			return fmt.Errorf("vsfdsl: %s takes %d arguments, got %d",
				n.fn, builtins[bi].arity, len(n.args))
		}
		for _, a := range n.args {
			if err := c.emit(a); err != nil {
				return err
			}
		}
		c.add(opCall, int32(bi))
	default:
		return errors.New("vsfdsl: internal: unknown AST node")
	}
	return nil
}

// verify is the bytecode verifier run after compilation and after decoding
// a program received over the network: it checks opcode validity, operand
// indices, jump targets and simulates stack depths on every path so Eval
// can run without bounds checks failing. A program that verifies cannot
// make the VM panic or loop (jumps must be strictly forward).
func (p *Program) verify() error {
	if len(p.code) == 0 {
		return errors.New("vsfdsl: empty program")
	}
	// depth[i] is the stack depth on entry to instruction i (-1 unknown).
	depth := make([]int, len(p.code)+1)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	maxDepth := 0
	for i, in := range p.code {
		d := depth[i]
		if d < 0 {
			return fmt.Errorf("vsfdsl: unreachable instruction %d", i)
		}
		var after int
		switch in.op {
		case opConst:
			if int(in.arg) < 0 || int(in.arg) >= len(p.consts) {
				return fmt.Errorf("vsfdsl: const index %d out of range", in.arg)
			}
			after = d + 1
		case opLoad:
			if int(in.arg) < 0 || int(in.arg) >= len(p.vars) {
				return fmt.Errorf("vsfdsl: variable slot %d out of range", in.arg)
			}
			after = d + 1
		case opNeg, opNot:
			if d < 1 {
				return fmt.Errorf("vsfdsl: stack underflow at %d", i)
			}
			after = d
		case opAdd, opSub, opMul, opDiv, opMod,
			opLt, opGt, opLe, opGe, opEq, opNe, opAnd, opOr:
			if d < 2 {
				return fmt.Errorf("vsfdsl: stack underflow at %d", i)
			}
			after = d - 1
		case opCall:
			if int(in.arg) < 0 || int(in.arg) >= len(builtins) {
				return fmt.Errorf("vsfdsl: builtin index %d out of range", in.arg)
			}
			ar := builtins[in.arg].arity
			if d < ar {
				return fmt.Errorf("vsfdsl: stack underflow at %d", i)
			}
			after = d - ar + 1
		case opJump:
			if int(in.arg) <= i || int(in.arg) > len(p.code) {
				return fmt.Errorf("vsfdsl: bad jump target %d at %d", in.arg, i)
			}
			merge(depth, int(in.arg), d)
			continue // no fallthrough to i+1
		case opJumpIfZ:
			if d < 1 {
				return fmt.Errorf("vsfdsl: stack underflow at %d", i)
			}
			if int(in.arg) <= i || int(in.arg) > len(p.code) {
				return fmt.Errorf("vsfdsl: bad jump target %d at %d", in.arg, i)
			}
			after = d - 1
			merge(depth, int(in.arg), after)
		default:
			return fmt.Errorf("vsfdsl: invalid opcode %d at %d", in.op, i)
		}
		if after > maxDepth {
			maxDepth = after
		}
		merge(depth, i+1, after)
	}
	if depth[len(p.code)] != 1 {
		return fmt.Errorf("vsfdsl: program ends with stack depth %d, want 1",
			depth[len(p.code)])
	}
	p.maxStack = maxDepth
	return nil
}

// merge records an incoming stack depth for a verifier join point. Because
// jumps are strictly forward the join depths are already final when
// visited; conflicting depths mean malformed code, surfaced by setting an
// impossible depth that the entry check rejects.
func merge(depth []int, at, d int) {
	if depth[at] == -1 {
		depth[at] = d
	} else if depth[at] != d {
		depth[at] = -2
	}
}

// Disassemble renders the bytecode for debugging and documentation.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; source: %s\n; vars: %s\n", p.source, strings.Join(p.vars, " "))
	for i, in := range p.code {
		fmt.Fprintf(&b, "%3d  %s", i, opNames[in.op])
		switch in.op {
		case opConst:
			fmt.Fprintf(&b, " %v", p.consts[in.arg])
		case opLoad:
			fmt.Fprintf(&b, " %s", p.vars[in.arg])
		case opCall:
			fmt.Fprintf(&b, " %s", builtins[in.arg].name)
		case opJump, opJumpIfZ:
			fmt.Fprintf(&b, " ->%d", in.arg)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Wire field numbers for program serialization.
const (
	fldSource = 1
	fldVar    = 2
	fldConst  = 3
	fldCode   = 4
)

// MarshalWire encodes the program for transmission in a VSF-updation
// protocol message.
func (p *Program) MarshalWire(e *wire.Encoder) {
	e.String(fldSource, p.source)
	for _, v := range p.vars {
		e.String(fldVar, v)
	}
	for _, c := range p.consts {
		e.Float(fldConst, c)
	}
	var code []byte
	for _, in := range p.code {
		code = wire.AppendUvarint(code, uint64(in.op))
		code = wire.AppendUvarint(code, wire.Zigzag(int64(in.arg)))
	}
	e.BytesField(fldCode, code)
}

// UnmarshalWire decodes and re-verifies a program received from the
// network. Verification failure rejects the payload — a corrupted or
// malicious VSF can never reach the VM.
func (p *Program) UnmarshalWire(d *wire.Decoder) error {
	*p = Program{}
	for {
		ok, err := d.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch d.Field() {
		case fldSource:
			if p.source, err = d.ReadString(); err != nil {
				return err
			}
		case fldVar:
			v, err := d.ReadString()
			if err != nil {
				return err
			}
			p.vars = append(p.vars, v)
		case fldConst:
			c, err := d.ReadFloat()
			if err != nil {
				return err
			}
			p.consts = append(p.consts, c)
		case fldCode:
			raw, err := d.ReadBytes()
			if err != nil {
				return err
			}
			if err := p.decodeCode(raw); err != nil {
				return err
			}
		default:
			if err := d.Skip(); err != nil {
				return err
			}
		}
	}
	return p.verify()
}

func (p *Program) decodeCode(raw []byte) error {
	pos := 0
	for pos < len(raw) {
		op, n := uvarintAt(raw, pos)
		if n <= 0 {
			return errors.New("vsfdsl: truncated code stream")
		}
		pos += n
		arg, n := uvarintAt(raw, pos)
		if n <= 0 {
			return errors.New("vsfdsl: truncated code stream")
		}
		pos += n
		if op >= uint64(opLastPlus) {
			return fmt.Errorf("vsfdsl: invalid opcode %d", op)
		}
		// An argument the instruction cannot hold is refused, not wrapped
		// into another slot, constant or jump target.
		a := wire.Unzigzag(arg)
		if int64(int32(a)) != a {
			return fmt.Errorf("vsfdsl: instruction %d argument %d: %w", len(p.code), a, wire.ErrRange)
		}
		p.code = append(p.code, instr{opcode(op), int32(a)})
	}
	return nil
}

func uvarintAt(b []byte, pos int) (uint64, int) {
	var v uint64
	var shift uint
	for i := pos; i < len(b); i++ {
		c := b[i]
		if shift >= 64 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i - pos + 1
		}
		shift += 7
	}
	return 0, 0
}
