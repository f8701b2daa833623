package minic

import (
	"testing"

	"ballarus/internal/interp"
)

// Fuzz targets: during normal `go test` runs these exercise the seed
// corpus; `go test -fuzz='^FuzzCompile$' ./internal/minic` explores further.
// The invariant under test is "no panics, and whatever compiles runs
// within budget without violating MIR validity".

func fuzzSeeds(f *testing.F) {
	seeds := []string{
		``,
		`int main() { return 0; }`,
		`int main() { int x = 1; return x + 2 * 3; }`,
		`struct s { int a; struct s *p; }; int main() { struct s v; v.a = 1; return v.a; }`,
		`int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); } int main() { return f(10); }`,
		`int main() { int i; for (i = 0; i < 5; i++) { printi(i); } return 0; }`,
		`int main() { switch (3) { case 1: return 1; case 2: return 2; default: return 9; } return 0; }`,
		`float g; int main() { g = 1.5; return (int)(g * 2.0); }`,
		`int main() { char *s = "ab\n"; prints(s); return s[0]; }`,
		`int main() { int a[3]; a[0] = 1; a[1] = a[0]++; return a[1]; }`,
		`int main() { return 1 ? 2 : 3; }`,
		`int main() { int x = 0; x += 1; x -= 2; x *= 3; x /= 2; x %= 2; return x; }`,
		// Malformed inputs the parser must reject gracefully.
		`int main() {`,
		`int main() { return ; }`,
		`struct s { struct s v; };`,
		`int 3x() {}`,
		`int main() { int x = "s"; }`,
		`/* unterminated`,
		`int main() { 'a`,
		"int main() { \x00 }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

func FuzzCompile(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src, Options{})
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := prog.Validate(); verr != nil {
			t.Fatalf("compiled program is invalid MIR: %v\nsource:\n%s", verr, src)
		}
		// Anything that compiles must run without an internal panic; any
		// fault or budget stop is acceptable.
		res, _ := interp.Run(prog, interp.Config{Budget: 1 << 16, MemWords: 1 << 16})
		_ = res
	})
}

// pathologicalSeeds are inputs chosen to stress the parser's recursion
// and error recovery: deep nesting, unterminated constructs, operator
// pile-ups, and oversized literals.
func pathologicalSeeds(f *testing.F) {
	deepParens := "int main() { return " + repeat("(", 200) + "1" + repeat(")", 200) + "; }"
	deepBlocks := "int main() " + repeat("{ if (1) ", 150) + "return 0;" + repeat(" }", 150) + " }"
	longChain := "int main() { return 1" + repeat(" + 1", 500) + "; }"
	seeds := []string{
		deepParens,
		deepBlocks,
		longChain,
		"int main() { return 99999999999999999999999999999; }",
		"int main() { return 1e999999; }",
		repeat("struct s { ", 100),
		"int main() { int " + repeat("x", 4096) + " = 0; return 0; }",
		"int main() { return 0; } " + repeat("/**/", 1000),
		"int main() { return ((((; }",
		"int main() { a.b.c.d.e.f.g.h; }",
		"int main() { x[1][2][3][4][5]; }",
		"int main() { f(g(h(i(j(k())))); }",
		"int main() { return -----------------1; }",
		`int main() { char *s = "` + repeat(`\x41`, 300) + `"; return 0; }`,
		"int\tmain\n(\r)\v{\freturn 0;}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

func repeat(s string, n int) string {
	b := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		b = append(b, s...)
	}
	return string(b)
}

// FuzzParse targets the parser alone: any input must either produce a
// syntax tree or a clean error — never a panic or a runaway. This is
// the CI fuzz-smoke target (go test -fuzz=FuzzParse -fuzztime=30s).
func FuzzParse(f *testing.F) {
	fuzzSeeds(f)
	pathologicalSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if file == nil {
			t.Fatal("Parse returned nil file with nil error")
		}
	})
}

func FuzzLex(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TEOF {
			t.Fatalf("token stream must end with EOF")
		}
	})
}
