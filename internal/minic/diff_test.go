package minic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ballarus/internal/interp"
)

// Differential testing: generate random programs as a tiny statement AST,
// render them to minic source, execute them on the reference evaluator
// below AND through the compiler + interpreter, and compare results.
// This pins the whole compile-execute pipeline against an independent
// implementation of the semantics.

type dExpr interface {
	render(b *strings.Builder)
	eval(env []int64) int64
}

type dConst int64

func (c dConst) render(b *strings.Builder) {
	if c < 0 {
		fmt.Fprintf(b, "(0 - %d)", -int64(c))
		return
	}
	fmt.Fprintf(b, "%d", int64(c))
}
func (c dConst) eval([]int64) int64 { return int64(c) }

type dVar int

func (v dVar) render(b *strings.Builder) { fmt.Fprintf(b, "v%d", int(v)) }
func (v dVar) eval(env []int64) int64    { return env[v] }

type dBin struct {
	op   string
	l, r dExpr
}

func (x dBin) render(b *strings.Builder) {
	b.WriteByte('(')
	x.l.render(b)
	b.WriteString(x.op)
	x.r.render(b)
	b.WriteByte(')')
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (x dBin) eval(env []int64) int64 {
	l := x.l.eval(env)
	switch x.op {
	case "&&":
		if l == 0 {
			return 0
		}
		return b2i(x.r.eval(env) != 0)
	case "||":
		if l != 0 {
			return 1
		}
		return b2i(x.r.eval(env) != 0)
	}
	r := x.r.eval(env)
	switch x.op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "/":
		return l / r // generator guarantees constant non-zero, non-(-1) r
	case "%":
		return l % r
	case "&":
		return l & r
	case "|":
		return l | r
	case "^":
		return l ^ r
	case "<<":
		return l << uint(r) // generator guarantees 0..62
	case ">>":
		return l >> uint(r)
	case "<":
		return b2i(l < r)
	case "<=":
		return b2i(l <= r)
	case ">":
		return b2i(l > r)
	case ">=":
		return b2i(l >= r)
	case "==":
		return b2i(l == r)
	case "!=":
		return b2i(l != r)
	}
	panic("bad op " + x.op)
}

type dStmt interface {
	renderS(b *strings.Builder, indent int)
	exec(env []int64)
}

type dAssign struct {
	v dVar
	e dExpr
}

func (s dAssign) renderS(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "v%d = ", int(s.v))
	s.e.render(b)
	b.WriteString(";\n")
}
func (s dAssign) exec(env []int64) { env[s.v] = s.e.eval(env) }

type dIf struct {
	c         dExpr
	then, els []dStmt
}

func (s dIf) renderS(b *strings.Builder, indent int) {
	pad(b, indent)
	b.WriteString("if (")
	s.c.render(b)
	b.WriteString(") {\n")
	for _, st := range s.then {
		st.renderS(b, indent+1)
	}
	pad(b, indent)
	b.WriteString("}")
	if s.els != nil {
		b.WriteString(" else {\n")
		for _, st := range s.els {
			st.renderS(b, indent+1)
		}
		pad(b, indent)
		b.WriteString("}")
	}
	b.WriteString("\n")
}

func (s dIf) exec(env []int64) {
	if s.c.eval(env) != 0 {
		for _, st := range s.then {
			st.exec(env)
		}
	} else {
		for _, st := range s.els {
			st.exec(env)
		}
	}
}

// dLoop is a bounded counting loop: `vC = n; while (vC > 0) { body; vC--; }`.
// The counter variable is reserved and never assigned by the body.
type dLoop struct {
	counter dVar
	n       int64
	body    []dStmt
}

func (s dLoop) renderS(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "v%d = %d;\n", int(s.counter), s.n)
	pad(b, indent)
	fmt.Fprintf(b, "while (v%d > 0) {\n", int(s.counter))
	for _, st := range s.body {
		st.renderS(b, indent+1)
	}
	pad(b, indent+1)
	fmt.Fprintf(b, "v%d--;\n", int(s.counter))
	pad(b, indent)
	b.WriteString("}\n")
}

func (s dLoop) exec(env []int64) {
	env[s.counter] = s.n
	for env[s.counter] > 0 {
		for _, st := range s.body {
			st.exec(env)
		}
		env[s.counter]--
	}
}

func pad(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteByte('\t')
	}
}

// dGen generates random programs.
type dGen struct {
	r     *rand.Rand
	nvars int
}

func (g *dGen) expr(depth int) dExpr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return dVar(g.r.Intn(g.nvars))
		}
		return dConst(g.r.Int63n(201) - 100)
	}
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	op := ops[g.r.Intn(len(ops))]
	l := g.expr(depth - 1)
	var r dExpr
	switch op {
	case "/", "%":
		r = dConst(g.r.Int63n(50) + 2) // non-zero, never -1
	case "<<", ">>":
		r = dConst(g.r.Int63n(20)) // small shift counts
	default:
		r = g.expr(depth - 1)
	}
	return dBin{op: op, l: l, r: r}
}

func (g *dGen) stmts(depth, n int, loopVarsUsed int) []dStmt {
	var out []dStmt
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && g.r.Intn(4) == 0:
			out = append(out, dIf{
				c:    g.expr(2),
				then: g.stmts(depth-1, 1+g.r.Intn(2), loopVarsUsed),
				els:  g.maybeElse(depth-1, loopVarsUsed),
			})
		case depth > 0 && loopVarsUsed < 3 && g.r.Intn(5) == 0:
			// Reserve the counter variable: the body assigns only
			// non-counter variables by construction (assign targets are
			// drawn from the first nvars-3 variables).
			counter := dVar(g.nvars - 3 + loopVarsUsed)
			out = append(out, dLoop{
				counter: counter,
				n:       int64(g.r.Intn(6)),
				body:    g.stmts(depth-1, 1+g.r.Intn(2), loopVarsUsed+1),
			})
		default:
			out = append(out, dAssign{
				v: dVar(g.r.Intn(g.nvars - 3)),
				e: g.expr(2 + g.r.Intn(2)),
			})
		}
	}
	return out
}

func (g *dGen) maybeElse(depth, loopVarsUsed int) []dStmt {
	if g.r.Intn(2) == 0 {
		return nil
	}
	return g.stmts(depth, 1+g.r.Intn(2), loopVarsUsed)
}

// program renders the statement list as a minic main() that prints the
// xor-mix of all variables.
func renderProgram(nvars int, init []int64, body []dStmt) string {
	var b strings.Builder
	b.WriteString("int main() {\n")
	for i := 0; i < nvars; i++ {
		fmt.Fprintf(&b, "\tint v%d = %d;\n", i, init[i])
	}
	for _, s := range body {
		s.renderS(&b, 1)
	}
	b.WriteString("\tint mix = 0;\n")
	for i := 0; i < nvars; i++ {
		fmt.Fprintf(&b, "\tmix = mix * 31 + v%d;\n", i)
	}
	b.WriteString("\tprinti(mix);\n\treturn 0;\n}\n")
	return b.String()
}

func refRun(nvars int, init []int64, body []dStmt) int64 {
	env := append([]int64(nil), init...)
	for _, s := range body {
		s.exec(env)
	}
	var mix int64
	for i := 0; i < nvars; i++ {
		mix = mix*31 + env[i]
	}
	return mix
}

// checkDifferential generates the program for seed, runs it on the
// reference evaluator and, with and without SpillLocals, through the
// compiler and interpreter, and fails unless all outputs agree.
func checkDifferential(t testing.TB, seed int64) {
	const nvars = 8
	g := &dGen{r: rand.New(rand.NewSource(seed)), nvars: nvars}
	init := make([]int64, nvars)
	for i := range init {
		init[i] = g.r.Int63n(2001) - 1000
	}
	body := g.stmts(3, 2+g.r.Intn(5), 0)
	src := renderProgram(nvars, init, body)
	want := refRun(nvars, init, body)

	for _, opts := range []Options{{}, {SpillLocals: true}} {
		prog, err := Compile(src, opts)
		if err != nil {
			t.Fatalf("seed %d opts %+v: compile: %v\n%s", seed, opts, err, src)
		}
		res, err := interp.Run(prog, interp.Config{Budget: 1 << 22})
		if err != nil {
			t.Fatalf("seed %d opts %+v: run: %v\n%s", seed, opts, err, src)
		}
		got := res.Output
		wantStr := fmt.Sprintf("%d", want)
		if got != wantStr {
			t.Fatalf("seed %d opts %+v: got %s, want %s\nprogram:\n%s", seed, opts, got, wantStr, src)
		}
	}
}

func TestDifferentialRandomPrograms(t *testing.T) {
	const trials = 300
	for seed := int64(0); seed < trials; seed++ {
		checkDifferential(t, seed)
	}
}

// FuzzCompileRun explores generator seeds beyond the 300 the
// differential test walks: `go test -fuzz=FuzzCompileRun ./internal/minic`.
func FuzzCompileRun(f *testing.F) {
	for _, seed := range []int64{0, 1, 299, -1, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkDifferential(t, seed) })
}
