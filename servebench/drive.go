package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// deployment is a running set of server processes for one workload.
type deployment struct {
	procs    []*proc
	base     string            // where the workload sends requests
	shards   map[string]string // fleet: shard name → base URL
	stateDir string
}

// launch starts the workload's servers and waits until they answer
// /healthz. Durable servers get a fresh, empty state directory.
func launch(ctx context.Context, p *params, binDir, runDir string, nproc, attempt int) (*deployment, error) {
	d := &deployment{}
	logDir := filepath.Join(runDir, "logs")
	var args []string
	if p.Durable {
		d.stateDir = filepath.Join(runDir, fmt.Sprintf("state-%d", attempt))
		if err := os.RemoveAll(d.stateDir); err != nil {
			return nil, err
		}
		args = append(args, "-state", d.stateDir, "-snapshot-interval", p.SnapshotInterval.String())
	}
	switch p.Name {
	case "solve", "refresh":
		pr, err := startProc(fmt.Sprintf("%s-blud-%d", p.Name, attempt), filepath.Join(binDir, "blud"),
			append([]string{"-addr", "127.0.0.1:0"}, args...), nproc, logDir)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, pr)
		addr, _, err := pr.waitLine("blud: listening on ", 60*time.Second)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.base = "http://" + addr
	case "fleet":
		pr, err := startProc(fmt.Sprintf("fleet-blufleet-%d", attempt), filepath.Join(binDir, "blufleet"),
			append([]string{"-mode", "all", "-cells", strconv.Itoa(p.Sessions), "-seed", strconv.FormatUint(p.DirectorySeed, 10),
				"-shards", strconv.Itoa(p.Shards), "-addr", "127.0.0.1:0"}, args...), nproc, logDir)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, pr)
		addr, seen, err := pr.waitLine("blufleet: router listening on ", 60*time.Second)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.base = "http://" + addr
		d.shards = map[string]string{}
		for _, line := range seen {
			// "blufleet: shard NAME listening on ADDR (cells: ...)"
			f := strings.Fields(line)
			if len(f) >= 6 && f[1] == "shard" && f[3] == "listening" {
				d.shards[f[2]] = "http://" + f[5]
			}
		}
		if len(d.shards) != p.Shards {
			d.stop()
			return nil, fmt.Errorf("blufleet announced %d shards, want %d", len(d.shards), p.Shards)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", p.Name)
	}
	if err := waitHealthy(ctx, http.DefaultClient, d.base, 60*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains every server and removes the state directory.
func (d *deployment) stop() error {
	var first error
	for _, p := range d.procs {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	d.procs = nil
	if d.stateDir != "" {
		if err := os.RemoveAll(d.stateDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kill ends every server at once (no drain) and removes the state
// directory.
func (d *deployment) kill() error {
	for _, p := range d.procs {
		p.kill()
	}
	d.procs = nil
	if d.stateDir != "" {
		return os.RemoveAll(d.stateDir)
	}
	return nil
}

// cpuTicks sums the servers' CPU time.
func (d *deployment) cpuTicks() (int64, error) {
	var total int64
	for _, p := range d.procs {
		t, err := p.cpuTicks()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSSMB sums the servers' peak resident sets.
func (d *deployment) peakRSSMB() (float64, error) {
	var kb int64
	for _, p := range d.procs {
		v, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// newConnClient is one pinned HTTP connection: a transport allowed a
// single connection, used by one goroutine at a time.
func newConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// outcome is one sent request and what came back.
type outcome struct {
	req    *request
	id     int64 // unique per run; the traced run's request id
	status int
	cache  string
	body   []byte
	t      timing
	err    error
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// release drops the bodies of an answered one-off request no check
// reads.
func (o *outcome) release() {
	if o.req.discard && o.ok() {
		o.body, o.req.body = nil, nil
	}
}

// maxRetries bounds how often a 429 or 503 is retried before the
// refusal counts as a failure.
const maxRetries = 3

// send posts one request, retrying refusals after a short pause.
func send(ctx context.Context, client *http.Client, base string, o *outcome) {
	url := base + kindPath[o.req.kind] + o.req.query
	for attempt := 0; ; attempt++ {
		o.status, o.cache, o.body, o.err = post(ctx, client, url, o.req.body)
		refused := o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable
		if o.err != nil || !refused || attempt == maxRetries {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Duration(attempt+1) * 50 * time.Millisecond):
		}
	}
}

// closedResult is one closed-loop phase.
type closedResult struct {
	outcomes  []*outcome
	completed int // status 200 and done inside the window
	window    time.Duration
	cpuTicks  int64
}

// closedLoop runs every connection back to back until warm+window has
// passed. Only requests completing inside the window count; the
// servers' CPU time is read at the window's two edges.
func closedLoop(ctx context.Context, d *deployment, clients []*http.Client, streams []stream, warm, window time.Duration, ids *int64) (*closedResult, error) {
	start := time.Now()
	ws, we := start.Add(warm), start.Add(warm+window)
	per := make([][]*outcome, len(clients))
	var wg sync.WaitGroup
	var idMu sync.Mutex
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(we) && ctx.Err() == nil {
				idMu.Lock()
				*ids++
				o := &outcome{req: streams[c](), id: *ids}
				idMu.Unlock()
				o.t.due = time.Now()
				o.t.sent = o.t.due
				send(ctx, clients[c], d.base, o)
				o.t.done = time.Now()
				o.release()
				per[c] = append(per[c], o)
			}
		}(c)
	}
	// CPU at the window edges, read while the load runs.
	var cpu0, cpu1 int64
	var cpuErr error
	sleepUntil(ctx, ws)
	cpu0, cpuErr = d.cpuTicks()
	sleepUntil(ctx, we)
	if cpuErr == nil {
		cpu1, cpuErr = d.cpuTicks()
	}
	wg.Wait()
	if cpuErr != nil {
		return nil, cpuErr
	}
	res := &closedResult{window: window, cpuTicks: cpu1 - cpu0}
	for _, list := range per {
		for _, o := range list {
			res.outcomes = append(res.outcomes, o)
			if o.ok() && !o.t.done.Before(ws) && !o.t.done.After(we) {
				res.completed++
			}
		}
	}
	return res, nil
}

// openLoop sends n requests at a fixed rate: request i is due at
// start + i/rate on connection i mod conns. A connection still busy
// when a request falls due sends it late; its latency still counts
// from the due time.
func openLoop(ctx context.Context, d *deployment, clients []*http.Client, streams []stream, rate float64, n int, ids *int64) []*outcome {
	conns := len(clients)
	out := make([]*outcome, n)
	start := time.Now().Add(20 * time.Millisecond)
	base := *ids
	*ids += int64(n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				o := &outcome{req: streams[c](), id: base + int64(i) + 1}
				o.t.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(ctx, o.t.due)
				o.t.sent = time.Now()
				if ctx.Err() != nil {
					o.err = ctx.Err()
				} else {
					send(ctx, clients[c], d.base, o)
				}
				o.t.done = time.Now()
				o.release()
				out[i] = o
			}
		}(c)
	}
	wg.Wait()
	return out
}

// sleepUntil waits until t or until ctx ends.
func sleepUntil(ctx context.Context, t time.Time) {
	w := time.Until(t)
	if w <= 0 {
		return
	}
	timer := time.NewTimer(w)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// preseed creates every session with its first observe batch, each on
// the connection the session is pinned to, so no timed read can race a
// session's creation. It returns the outcomes in session order.
func preseed(ctx context.Context, d *deployment, clients []*http.Client, in *inputs, ids *int64) ([]*outcome, error) {
	conns := len(clients)
	out := make([]*outcome, len(in.sessions))
	for i, s := range in.sessions {
		*ids++
		out[i] = &outcome{req: s.batches[0], id: *ids}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(out); i += conns {
				send(ctx, clients[c], d.base, out[i])
				if !out[i].ok() {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for i, o := range out {
		if !o.ok() {
			return nil, fmt.Errorf("pre-seed %s: status %d %s %v", in.sessions[i].name, o.status, o.body, o.err)
		}
	}
	return out, nil
}
