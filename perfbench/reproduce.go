package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
	"ballarus/internal/profile"
	"ballarus/internal/stats"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// reproduceCmds are the commands docs/RESULTS.txt's header names, in
// its order; their concatenated output is the document's body.
var reproduceCmds = [][]string{
	{"bltables", "-trials", "20000"},
	{"bltables", "-ext"},
	{"blorders", "-exact"},
	{"blgraphs", "-summary"},
}

// firstRuns are the reproduce set-up's cold invocations: each command's
// smallest job, and how many leading lines of its output docs/RESULTS.txt
// must contain (0: all of them).
var firstRuns = []struct {
	args  []string
	lines int
}{
	{[]string{"bltables", "-table", "1"}, 0},
	{[]string{"blorders", "-trials", "100", "-q", "-top", "1"}, 2},
	{[]string{"blgraphs", "-graph", "1", "-summary"}, 0},
}

// setUpReproduce builds the three commands and runs each once, as a
// fresh process, on its smallest job: the time until a user who has
// just built the tree has a first answer from each. Every answer must
// be part of the document.
func setUpReproduce(doc string) error {
	if err := build("bltables", "blorders", "blgraphs"); err != nil {
		return err
	}
	for _, f := range firstRuns {
		cmd := exec.Command(binPath(f.args[0]), f.args[1:]...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				err = fmt.Errorf("%w: %.300s", err, ee.Stderr)
			}
			return fmt.Errorf("%s: %w", strings.Join(f.args, " "), err)
		}
		lines := strings.SplitAfter(string(out), "\n")
		if f.lines > 0 && f.lines < len(lines) {
			lines = lines[:f.lines]
		}
		if got := strings.Join(lines, ""); got == "" || !strings.Contains(maskTimings(doc), maskTimings(got)) {
			return fmt.Errorf("%s: output is not part of docs/RESULTS.txt", strings.Join(f.args, " "))
		}
	}
	return nil
}

// regen is one regeneration of docs/RESULTS.txt.
type regen struct {
	wall  time.Duration
	cpu   time.Duration // user + system of the four processes
	rssMB float64       // their peak resident sets, summed
	out   []byte
}

// regenerate runs the four commands in sequence, each a fresh process
// so every package-level cache starts cold, as it does for a user.
func regenerate(rec *recorder, req uint64) (regen, error) {
	var g regen
	root, end := rec.start("reproduce.regeneration", 0, req)
	defer end()
	logf, err := os.Create(filepath.Join(buildDir, "logs", "reproduce.log"))
	if err != nil {
		return g, err
	}
	defer logf.Close()
	start := time.Now()
	for _, c := range reproduceCmds {
		var out bytes.Buffer
		cmd := exec.Command(binPath(c[0]), c[1:]...)
		cmd.Stdout, cmd.Stderr = &out, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		err := cmd.Run()
		rec.record(fmt.Sprintf("%s.main(%s)", c[0], strings.Join(c[1:], " ")), root, req, t0, time.Now())
		if err != nil {
			return g, fmt.Errorf("%s: %w", strings.Join(c, " "), err)
		}
		g.cpu += cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			g.rssMB += float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
		}
		g.out = append(g.out, out.Bytes()...)
	}
	g.wall = time.Since(start)
	return g, nil
}

// staleTitle is the one table docs/RESULTS.txt has out of date: it was
// written before the Bimodal, Gshare and TAGE columns existed.
const staleTitle = "Extension: static vs dynamic hardware predictors (miss %)"

// Suite totals of the streaming predictors over every benchmark's
// default dataset, as the predictor snapshot reports them.
const (
	suiteBranchEvents = 2590633
	suiteMissBimodal  = 241313
	suiteMissTwoBit   = 241313
	suiteMissGshare   = 138089
	suiteMissTAGE     = 87067
)

// timingRE matches the wall-clock figures blorders prints, the only
// text of the output that differs from run to run.
var timingRE = regexp.MustCompile(`\(\d+\.\d+s\)|trials in \d+\.\d+s,`)

// maskTimings replaces the digits of blorders' wall-clock figures.
func maskTimings(s string) string {
	return timingRE.ReplaceAllStringFunc(s, func(m string) string {
		return strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return '#'
			}
			return r
		}, m)
	})
}

// checkRegeneration is the reproduce workload's correctness gate: the
// output equals docs/RESULTS.txt's body byte for byte, timings masked,
// except the stale table. That table's first four columns must match
// the document's, and its Bimodal, Gshare and TAGE columns must match
// ref, the in-process replay whose suite totals are pinned above.
func checkRegeneration(out []byte, doc string, ref *dynTable) error {
	_, body, ok := strings.Cut(doc, "\n\n")
	if !ok {
		return fmt.Errorf("docs/RESULTS.txt has no header")
	}
	gotRest, gotTable, err := cutSection(maskTimings(string(out)), staleTitle)
	if err != nil {
		return fmt.Errorf("output: %w", err)
	}
	docRest, docTable, err := cutSection(maskTimings(body), staleTitle)
	if err != nil {
		return fmt.Errorf("docs/RESULTS.txt: %w", err)
	}
	if gotRest != docRest {
		return fmt.Errorf("output differs from docs/RESULTS.txt outside the stale table at line %d", firstDiffLine(gotRest, docRest))
	}
	got, want := strings.Split(gotTable, "\n"), strings.Split(docTable, "\n")
	if len(got) != len(want) {
		return fmt.Errorf("stale table: %d lines, docs/RESULTS.txt has %d", len(got), len(want))
	}
	for i := range got {
		if !strings.HasPrefix(got[i], want[i]) {
			return fmt.Errorf("stale table line %d: first columns %q differ from docs/RESULTS.txt %q", i+1, got[i], want[i])
		}
	}
	// Rows: title, header, one per benchmark, MEAN.
	rows := got[2:]
	if len(rows) != len(ref.names)+1 {
		return fmt.Errorf("stale table has %d rows, want %d", len(rows), len(ref.names)+1)
	}
	for i, line := range rows {
		f := strings.Fields(line)
		if len(f) != 8 {
			return fmt.Errorf("stale table row %q: %d columns, want 8", line, len(f))
		}
		want := ref.mean[:]
		name := "MEAN"
		if i < len(ref.names) {
			want, name = ref.rates[i][:], ref.names[i]
		}
		for j, w := range want {
			if f[0] != name || f[5+j] != fmt.Sprintf("%.1f", w) {
				return fmt.Errorf("stale table row %q: want %s with %s %.1f", line, name, dynCols[j], w)
			}
		}
	}
	return nil
}

// cutSection removes the blank-line-delimited section starting with
// title and returns the rest and the section.
func cutSection(s, title string) (rest, section string, err error) {
	i := strings.Index(s, title+"\n")
	if i < 0 {
		return "", "", fmt.Errorf("no %q section", title)
	}
	j := strings.Index(s[i:], "\n\n")
	if j < 0 {
		return "", "", fmt.Errorf("unterminated %q section", title)
	}
	return s[:i] + s[i+j:], s[i : i+j], nil
}

func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}

// dynCols are the stale table's missing columns, in display order.
var dynCols = [3]string{dynpred.NameBimodal, dynpred.NameGshare, dynpred.NameTAGE}

// dynTable is the in-process reference for the missing columns.
type dynTable struct {
	names []string
	rates [][3]float64 // per benchmark, miss % per dynCols entry
	mean  [3]float64
}

// Names of the static entrants in the predictor snapshot's totals.
const (
	staticHeuristics = "ballarus-heuristics"
	staticPerfect    = "perfect"
)

// suiteTotals is one replay of every benchmark's default dataset.
type suiteTotals struct {
	events int64            // conditional branch events
	misses map[string]int64 // per registered predictor and static entrant
	table  dynTable
}

// suiteReplay runs every benchmark's default dataset once, streaming
// its branch events into every registered dynamic predictor, scores the
// heuristic and perfect static predictions, and checks the totals the
// predictor snapshot pins.
func suiteReplay() (*suiteTotals, error) {
	names := dynpred.Names()
	st := &suiteTotals{misses: map[string]int64{}}
	var cols [3][]float64
	for _, b := range suite.All() {
		prog, err := minic.Compile(b.Source, minic.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		an, err := core.Analyze(prog, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		n := profile.Index(prog).Len()
		ps := make([]dynpred.Predictor, len(names))
		for i, name := range names {
			if ps[i], err = dynpred.New(name, n); err != nil {
				return nil, err
			}
		}
		res := make([]dynpred.Result, len(names))
		run, err := interp.Run(prog, interp.Config{Input: b.Data[0].Input, Budget: b.Budget, OnEvent: func(ev interp.Event) {
			if ev.Kind != interp.EvBranch {
				return
			}
			for i, p := range ps {
				res[i].Branches++
				if p.Predict(ev.Branch) != ev.Taken {
					res[i].Miss++
				}
				p.Update(ev.Branch, ev.Taken)
			}
		}})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		st.events += res[0].Branches
		rates := map[string]float64{}
		for i, name := range names {
			st.misses[name] += res[i].Miss
			rates[name] = res[i].MissRate()
		}
		heur := trace.PredictionVector(an.Predictions(core.DefaultOrder))
		st.misses[staticHeuristics] += dynpred.StaticResult(run.Profile, heur).Miss
		st.misses[staticPerfect] += dynpred.StaticResult(run.Profile, trace.PerfectVector(run.Profile)).Miss
		var row [3]float64
		for j, name := range dynCols {
			row[j] = rates[name]
			cols[j] = append(cols[j], row[j])
		}
		st.table.names = append(st.table.names, b.Name)
		st.table.rates = append(st.table.rates, row)
	}
	for j := range cols {
		st.table.mean[j] = stats.Mean(cols[j])
	}
	want := map[string]int64{dynpred.NameTwoBit: suiteMissTwoBit, dynpred.NameBimodal: suiteMissBimodal,
		dynpred.NameGshare: suiteMissGshare, dynpred.NameTAGE: suiteMissTAGE}
	if st.events != suiteBranchEvents {
		return nil, fmt.Errorf("suite replay: %d branch events, want %d", st.events, suiteBranchEvents)
	}
	for name, w := range want {
		if st.misses[name] != w {
			return nil, fmt.Errorf("suite replay: %s has %d misses, want %d", name, st.misses[name], w)
		}
	}
	return st, nil
}
