package interp

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"ballarus/internal/mir"
)

// arenaData is the data segment of every arena test program.
var arenaData = []int64{11, 22, 33}

// arenaAddrs are the words the arena tests dirty in an n-word memory:
// a data word, a low heap word, both sides of the watermark split, a
// wild word in the upper half, and the top of the stack.
func arenaAddrs(n int) []int64 {
	h := int64(n / 2)
	return []int64{1, 16, h - 1, h, h + h/2, int64(n) - 1}
}

// dirtyProgram stores v (odd addresses through FSw, the rest through
// Sw) at every address of addrs, then ends in tail.
func dirtyProgram(addrs []int64, v int64, tail ...mir.Instr) *mir.Program {
	code := []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: v},
		{Op: mir.CvtIF, Rd: mir.Float(0), Rs: mir.Int(0)},
	}
	for i, a := range addrs {
		code = append(code, mir.Instr{Op: mir.Li, Rd: mir.Int(1), Imm: a})
		if i%2 == 1 {
			code = append(code, mir.Instr{Op: mir.FSw, Rs: mir.Int(1), Rt: mir.Float(0)})
		} else {
			code = append(code, mir.Instr{Op: mir.Sw, Rs: mir.Int(1), Rt: mir.Int(0)})
		}
	}
	code = append(code, tail...)
	return &mir.Program{
		Data:  arenaData,
		Procs: []*mir.Proc{{Name: "main", NIRegs: 3, NFRegs: 1, Code: code}},
	}
}

// faultTail ends a program with an out-of-range load.
var faultTail = []mir.Instr{
	{Op: mir.Li, Rd: mir.Int(1), Imm: -5},
	{Op: mir.Lw, Rd: mir.Int(2), Rs: mir.Int(1)},
	{Op: mir.Halt},
}

// panicTail ends a program with a read of a register the frame does
// not have, which validation rejects and, unvalidated, only the
// internal-panic recovery catches.
var panicTail = []mir.Instr{
	{Op: mir.Add, Rd: mir.Int(0), Rs: mir.Int(99), Rt: mir.Int(0)},
	{Op: mir.Halt},
}

// orProgram returns the bitwise OR of the words at addrs as its exit
// code.
func orProgram(addrs []int64) *mir.Program {
	code := []mir.Instr{{Op: mir.Li, Rd: mir.Int(0), Imm: 0}}
	for _, a := range addrs {
		code = append(code,
			mir.Instr{Op: mir.Li, Rd: mir.Int(1), Imm: a},
			mir.Instr{Op: mir.Lw, Rd: mir.Int(2), Rs: mir.Int(1)},
			mir.Instr{Op: mir.Or, Rd: mir.Int(0), Rs: mir.Int(0), Rt: mir.Int(2)})
	}
	code = append(code, mir.Instr{Op: mir.Move, Rd: mir.RV, Rs: mir.Int(0)}, mir.Instr{Op: mir.Halt})
	return &mir.Program{
		Data:  arenaData,
		Procs: []*mir.Proc{{Name: "main", NIRegs: 3, Code: code}},
	}
}

func runValid(t testing.TB, prog *mir.Program, cfg Config) (*Result, error) {
	t.Helper()
	if err := prog.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return Run(prog, cfg)
}

// TestArenaReuseStartsZeroed: runs that dirty memory and then fault or
// panic must hand the next run an all-zero memory, except the data
// segment at its initial values.
func TestArenaReuseStartsZeroed(t *testing.T) {
	// No GC in between, so the pool keeps the arena the runs share.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{0, 1 << 16} {
		t.Run(fmt.Sprint("MemWords=", n), func(t *testing.T) {
			size := n
			if size == 0 {
				size = 1 << 21
			}
			addrs := arenaAddrs(size)
			cfg := Config{MemWords: n}
			if _, err := runValid(t, dirtyProgram(addrs, 0x5A5A, faultTail...), cfg); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("faulting run: err = %v", err)
			}
			// Validation would reject panicTail; Run must not.
			if _, err := Run(dirtyProgram(addrs, 0x5A5A, panicTail...), cfg); err == nil || !strings.Contains(err.Error(), "internal panic") {
				t.Fatalf("panicking run: err = %v", err)
			}
			if w := getWorkspace(size); !allZero(w.mem) {
				t.Error("pooled arena is not all zero")
			} else {
				workspaces.Put(w)
			}
			for _, a := range addrs {
				want := int64(0)
				if a < int64(len(arenaData)) {
					want = arenaData[a]
				}
				res, err := runValid(t, orProgram([]int64{a}), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.ExitCode != want {
					t.Errorf("word %d reads %#x after reuse, want %#x", a, res.ExitCode, want)
				}
			}
		})
	}
}

// TestArenaReuseConcurrent runs distinct dirtying programs on 8
// goroutines; every run must still see only its own data segment.
func TestArenaReuseConcurrent(t *testing.T) {
	const n = 1 << 16
	var all []int64
	for g := 0; g < 8; g++ {
		for _, a := range arenaAddrs(n) {
			if a >= int64(len(arenaData)) {
				all = append(all, a-int64(g))
			}
		}
	}
	check := orProgram(all)
	var dirty []*mir.Program
	for g := 0; g < 8; g++ {
		var addrs []int64
		for _, a := range arenaAddrs(n) {
			if a >= int64(len(arenaData)) {
				a -= int64(g)
			}
			addrs = append(addrs, a)
		}
		dirty = append(dirty, dirtyProgram(addrs, int64(g+1), mir.Instr{Op: mir.Halt}))
	}
	for _, p := range append(dirty, check) {
		if err := p.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := Run(dirty[g], Config{MemWords: n}); err != nil {
					t.Error(err)
					return
				}
				res, err := Run(check, Config{MemWords: n})
				if err != nil {
					t.Error(err)
					return
				}
				if res.ExitCode != 0 {
					t.Errorf("goroutine %d: a fresh run reads %#x from another run's words", g, res.ExitCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func allZero(mem []int64) bool {
	for _, w := range mem {
		if w != 0 {
			return false
		}
	}
	return true
}
