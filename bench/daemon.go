package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSabred compiles the daemon from the repository at root into dir.
func buildSabred(root, dir string) (string, error) {
	bin := filepath.Join(dir, "sabred")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sabred")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build sabred: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonArgs returns the flags a workload's daemon runs with. Each boot
// of large_jobs gets a fresh durable job log, so no boot replays
// another's jobs. Its jobs all carry fresh seeds, so a result cache
// would never hit, and its clients fetch each result the moment the job
// ends: without the cache and with a short retention, peak memory is
// the working set of the jobs in flight rather than a history that
// grows with throughput.
func daemonArgs(workload, tmp string) ([]string, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2"}
	if workload == wLargeJobs {
		dir, err := os.MkdirTemp(tmp, "joblog-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-job-log", dir, "-fsync", "always", "-cache", "-1", "-job-ttl", "2s")
	}
	return args, nil
}

// bootFor boots a daemon configured for workload.
func bootFor(bin, workload, tmp string) (*daemon, time.Duration, error) {
	args, err := daemonArgs(workload, tmp)
	if err != nil {
		return nil, 0, err
	}
	return boot(bin, args)
}

// daemon is one running sabred process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process is reaped
}

// logWriter keeps the daemon's stderr and reports the address from its
// "listening on" line.
type logWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

const listenMarker = "listening on "

func (l *logWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() < 1<<16 {
		l.buf.Write(p)
	}
	if !l.found {
		s := l.buf.String()
		if i := strings.Index(s, listenMarker); i >= 0 {
			if rest := s[i+len(listenMarker):]; strings.ContainsAny(rest, " \n") {
				l.found = true
				l.addr <- strings.Fields(rest)[0]
			}
		}
	}
	return len(p), nil
}

func (l *logWriter) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// boot starts sabred and returns once GET /healthz answers 200, with the
// time from exec to that answer.
func boot(bin string, args []string) (*daemon, time.Duration, error) {
	lw := &logWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = lw
	// The daemon dies with the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sabred: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		// The exit status is not needed: a daemon that dies early is
		// reported below, and stop only waits for the exit.
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case addr := <-lw.addr:
		d.base = "http://" + addr
	case <-d.done:
		return nil, 0, fmt.Errorf("sabred exited before listening:\n%s", lw)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("sabred did not listen within 30s:\n%s", lw)
	}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return d, time.Since(start), nil
}

// stop sends SIGTERM, escalates to SIGKILL after 20s, and returns once
// the process has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
