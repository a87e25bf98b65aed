package vsfdsl

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"flexran/internal/wire"
)

func eval(t *testing.T, src string, vars []string, env []float64) float64 {
	t.Helper()
	p, err := Compile(src, vars)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	v, err := p.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

// The expression tables below are also FuzzProgramDecode's seeds.

var arithmeticCases = map[string]float64{
	"1 + 2 * 3":   7,
	"(1 + 2) * 3": 9,
	"10 - 4 - 3":  3, // left associative
	"7 / 2":       3.5,
	"7 % 3":       1,
	"-3 + 1":      -2,
	"--3":         3,
	"2 * -4":      -8,
	"1.5e2 + 0.5": 150.5,
	"0.1 + 0.2":   0.30000000000000004,
}

func TestArithmetic(t *testing.T) {
	for src, want := range arithmeticCases {
		if got := eval(t, src, nil, nil); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

var logicCases = map[string]float64{
	"1 < 2":              1,
	"2 < 1":              0,
	"2 <= 2":             1,
	"3 >= 4":             0,
	"1 == 1":             1,
	"1 != 1":             0,
	"1 && 0":             0,
	"1 && 2":             1,
	"0 || 0":             0,
	"0 || 5":             1,
	"!0":                 1,
	"!3":                 0,
	"1 < 2 && 3 > 2":     1,
	"1 < 2 || 1 / 0 > 0": 1, // eager but well-defined (Inf)
}

func TestComparisonsAndLogic(t *testing.T) {
	for src, want := range logicCases {
		if got := eval(t, src, nil, nil); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestTernary(t *testing.T) {
	vars := []string{"x"}
	if got := eval(t, "x > 0 ? 10 : 20", vars, []float64{5}); got != 10 {
		t.Errorf("then branch = %v", got)
	}
	if got := eval(t, "x > 0 ? 10 : 20", vars, []float64{-5}); got != 20 {
		t.Errorf("else branch = %v", got)
	}
	// Nested ternaries associate to the right.
	src := "x > 10 ? 1 : x > 5 ? 2 : 3"
	if got := eval(t, src, vars, []float64{20}); got != 1 {
		t.Errorf("nested = %v", got)
	}
	if got := eval(t, src, vars, []float64{7}); got != 2 {
		t.Errorf("nested = %v", got)
	}
	if got := eval(t, src, vars, []float64{1}); got != 3 {
		t.Errorf("nested = %v", got)
	}
}

var functionCases = map[string]float64{
	"min(3, 5)":        3,
	"max(3, 5)":        5,
	"abs(-4)":          4,
	"floor(2.9)":       2,
	"ceil(2.1)":        3,
	"sqrt(16)":         4,
	"exp(0)":           1,
	"pow(2, 10)":       1024,
	"clamp(15, 0, 10)": 10,
	"clamp(-1, 0, 10)": 0,
	"clamp(5, 0, 10)":  5,
}

func TestVariablesAndFunctions(t *testing.T) {
	vars := []string{"queue", "inst_rate", "avg_rate"}
	// The canonical proportional-fair metric from the paper's scheduling
	// delegation use case.
	src := "queue > 0 ? inst_rate / max(avg_rate, 0.01) : -1"
	got := eval(t, src, vars, []float64{1500, 10, 2})
	if got != 5 {
		t.Errorf("PF metric = %v, want 5", got)
	}
	if got := eval(t, src, vars, []float64{0, 10, 2}); got != -1 {
		t.Errorf("empty queue = %v, want -1", got)
	}

	for src, want := range functionCases {
		if got := eval(t, src, nil, nil); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	if got := eval(t, "log(exp(1))", nil, nil); math.Abs(got-1) > 1e-12 {
		t.Errorf("log(exp(1)) = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []struct{ src, wantSub string }{
		{"", "unexpected"},
		{"1 +", "unexpected"},
		{"foo", "unknown variable"},
		{"nope(1)", "unknown function"},
		{"min(1)", "takes 2 arguments"},
		{"min(1, 2, 3)", "takes 2 arguments"},
		{"1 ? 2", "expected ':'"},
		{"(1 + 2", "expected ')'"},
		{"1 = 2", "'=='"},
		{"1 & 2", "doubled"},
		{"$x", "unexpected character"},
		{"1..2", "bad number"},
		{"1 2", "unexpected"},
	}
	for _, c := range bad {
		_, err := Compile(c.src, []string{"x"})
		if err == nil {
			t.Errorf("Compile(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Compile(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
	if _, err := Compile("x", []string{"x", "x"}); err == nil {
		t.Error("duplicate variable names should fail")
	}
}

func TestEvalEnvMismatch(t *testing.T) {
	p := MustCompile("x + y", []string{"x", "y"})
	if _, err := p.Eval([]float64{1}); err == nil {
		t.Error("short environment should fail")
	}
	if _, err := p.EvalStack([]float64{1, 2}, make([]float64, 0)); err == nil {
		t.Error("undersized stack should fail")
	}
}

func TestWireRoundTrip(t *testing.T) {
	src := "queue > 0 ? inst_rate / max(avg_rate, 0.01) : -(cqi + 1)"
	vars := []string{"queue", "inst_rate", "avg_rate", "cqi"}
	in := MustCompile(src, vars)

	b := wire.Marshal(in)
	var out Program
	if err := wire.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Source() != src {
		t.Errorf("source = %q", out.Source())
	}
	env := []float64{100, 8, 4, 9}
	want, _ := in.Eval(env)
	got, err := out.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("decoded program Eval = %v, want %v", got, want)
	}
}

func TestWireRejectsCorruptedPrograms(t *testing.T) {
	in := MustCompile("x > 0 ? 1 : 2", []string{"x"})
	good := wire.Marshal(in)
	// Flipping bytes must never yield a program that panics at Eval time:
	// it either fails to decode/verify or evaluates safely.
	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		var out Program
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic decoding mutation %d: %v", i, r)
				}
			}()
			if err := wire.Unmarshal(mut, &out); err != nil {
				return // rejected: good
			}
			env := make([]float64, len(out.vars))
			_, _ = out.Eval(env)
		}()
	}
}

func TestVerifierRejectsMalformed(t *testing.T) {
	mk := func(code []instr, consts []float64, nvars int) *Program {
		return &Program{
			source: "hand-built",
			vars:   make([]string, nvars),
			consts: consts,
			code:   code,
		}
	}
	bad := []*Program{
		mk(nil, nil, 0),                                          // empty
		mk([]instr{{opAdd, 0}}, nil, 0),                          // underflow
		mk([]instr{{opConst, 5}}, []float64{1}, 0),               // const oob
		mk([]instr{{opLoad, 0}}, nil, 0),                         // var oob
		mk([]instr{{opConst, 0}, {opJump, 0}}, []float64{1}, 0),  // backward jump
		mk([]instr{{opConst, 0}, {opJump, 99}}, []float64{1}, 0), // jump oob
		mk([]instr{{opConst, 0}, {opConst, 0}}, []float64{1}, 0), // depth 2 at end
		mk([]instr{{opcode(200), 0}}, nil, 0),                    // invalid opcode
		mk([]instr{{opCall, 99}}, nil, 0),                        // builtin oob
	}
	for i, p := range bad {
		if err := p.verify(); err == nil {
			t.Errorf("program %d should fail verification", i)
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := MustCompile("x > 0 ? min(x, 5) : 0", []string{"x"})
	d := p.Disassemble()
	for _, want := range []string{"load x", "call min", "jz", "jump"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestEvalStackReuseNoAlloc(t *testing.T) {
	p := MustCompile("a*b + c*d - min(a, d)", []string{"a", "b", "c", "d"})
	env := []float64{1, 2, 3, 4}
	stack := make([]float64, p.MaxStack())
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.EvalStack(env, stack); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EvalStack allocates %v times per run, want 0", allocs)
	}
}

func TestPropertyCompiledMatchesDirect(t *testing.T) {
	// For random linear expressions, compiled evaluation must match a
	// directly computed value.
	p := MustCompile("a*x + b", []string{"a", "x", "b"})
	f := func(a, x, b float64) bool {
		got, err := p.Eval([]float64{a, x, b})
		if err != nil {
			return false
		}
		want := a*x + b
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTernarySelectsBranch(t *testing.T) {
	p := MustCompile("x >= t ? hi : lo", []string{"x", "t", "hi", "lo"})
	f := func(x, thr, hi, lo float64) bool {
		got, err := p.Eval([]float64{x, thr, hi, lo})
		if err != nil {
			return false
		}
		want := lo
		if x >= thr {
			want = hi
		}
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
