package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// proc is one server process the benchmark started.
type proc struct {
	name   string
	cmd    *exec.Cmd
	lines  chan string   // stdout lines until EOF
	waited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after waited closes
	logf   *os.File
}

// procs tracks every live server so an early exit still stops them.
var procs struct {
	sync.Mutex
	live map[*proc]bool
}

// startProc launches bin with GOMAXPROCS set, stderr into a log file
// under logDir, and stdout delivered line by line.
func startProc(name, bin string, args []string, gomaxprocs int, logDir string) (*proc, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// Should the benchmark itself be killed, the kernel kills the servers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, lines: make(chan string, 64), waited: make(chan struct{}), logf: logf}
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*proc]bool{}
	}
	procs.live[p] = true
	procs.Unlock()
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			select {
			case p.lines <- sc.Text():
			default: // nobody is waiting for more lines; the log has it
			}
		}
		close(p.lines)
		p.err = cmd.Wait()
		close(p.waited)
	}()
	return p, nil
}

// waitLine returns the first stdout line with prefix (without it) and
// every line seen before it, or an error when the process exits or the
// deadline passes first.
func (p *proc) waitLine(prefix string, timeout time.Duration) (string, []string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var seen []string
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", seen, fmt.Errorf("%s exited before printing %q (see %s)", p.name, prefix, p.logf.Name())
			}
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest, seen, nil
			}
			seen = append(seen, line)
		case <-deadline.C:
			return "", seen, fmt.Errorf("%s printed no %q within %v", p.name, prefix, timeout)
		}
	}
}

// stop sends SIGTERM (a graceful drain) and waits for the process to
// end, killing it if the drain overruns.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.waited:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.waited
	}
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
	p.logf.Close()
	if p.err != nil {
		return fmt.Errorf("%s: %w (see %s)", p.name, p.err, p.logf.Name())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only if already gone
	<-p.waited
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
	p.logf.Close()
}

// killAll kills every server still running, for error paths.
func killAll() {
	procs.Lock()
	live := make([]*proc, 0, len(procs.live))
	for p := range procs.live {
		live = append(live, p)
	}
	procs.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// cpuTicks is the process's user+system CPU time so far.
func (p *proc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// peakRSSKB is the process's VmHWM.
func (p *proc) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// hostSteal reads the host's CPU tick counters.
func hostSteal() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseHostCPU(string(b))
}

// waitHealthy polls /healthz until it answers 200 with status "ok".
func waitHealthy(ctx context.Context, client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within %v (last error: %v)", base, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// fetchCounters reads the counter section of a server's /metrics.
func fetchCounters(ctx context.Context, client *http.Client, base string) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters counters `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if snap.Counters == nil {
		snap.Counters = counters{}
	}
	return snap.Counters, nil
}

// post sends one body and returns status, X-Blu-Cache and the body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Blu-Cache"), rb, nil
}
