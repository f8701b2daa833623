package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark builds or writes, relative to
// the repository root it runs in.
const buildDir = ".bench_build"

// build compiles the named commands of the repository into
// buildDir/bin. The go command skips the link when a binary is already
// up to date, so every build after a run's first costs what a user's
// rebuild of an unchanged tree costs.
func build(cmds ...string) error {
	args := []string{"build", "-o", filepath.Join(buildDir, "bin") + "/"}
	for _, c := range cmds {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", strings.Join(cmds, " "), err)
	}
	return nil
}

func binPath(name string) string { return filepath.Join(buildDir, "bin", name) }

// proc is one long-running server process the benchmark launched.
type proc struct {
	cmd  *exec.Cmd
	addr string // host:port from its "listening" log line
	done chan struct{}
	err  error // the Wait result, valid once done is closed
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// launch starts a server binary with -addr 127.0.0.1:0 and waits for
// the port it prints. Its log goes to buildDir/logs.
func launch(name, bin string, args ...string) (*proc, error) {
	logDir := filepath.Join(buildDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(binPath(bin), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Bytes()
			if !sent {
				if m := listenRE.FindSubmatch(line); m != nil {
					addrc <- string(m[1])
					sent = true
				}
			}
			logf.Write(line)
			logf.Write([]byte{'\n'})
		}
		logf.Close()
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %v (see %s)", name, p.err, logf.Name())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 30s", name)
	}
}

// stop asks the process to shut down and waits until it has exited,
// killing it if it outlives its drain.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll stops every server still running; main calls it on every
// exit path.
func stopAll() {
	procsMu.Lock()
	ps := procs
	procs = nil
	procsMu.Unlock()
	stopProcs(ps)
}

// stopProcs stops the processes concurrently and waits for all of them.
func stopProcs(ps []*proc) {
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux this runs on.
const clockTick = 100

// cpuTime returns the user plus system CPU the process has used.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// peakRSS returns the process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
