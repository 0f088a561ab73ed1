package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	"monsoon/internal/daemon"
)

// buildDir holds what the benchmark compiles; relative to the checkout root
// the benchmark is run from.
const buildDir = outDir + "/build"

// buildDaemon compiles cmd/monsoond from the checkout the benchmark runs in.
// It is not part of setup_s: a checkout pays it once, then the build cache
// answers.
func buildDaemon() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "monsoond"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/monsoond")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build monsoond: %v\n%s", err, out)
	}
	return bin, nil
}

// live tracks running daemon children so that a signal to the benchmark stops
// them too; every other exit path stops its daemon through a deferred stop.
var live struct {
	sync.Mutex
	procs map[*daemonProc]struct{}
}

// stopChildrenOnSignal kills every live daemon when the benchmark itself is
// interrupted, then exits non-zero.
func stopChildrenOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		live.Lock()
		for p := range live.procs {
			_ = p.cmd.Process.Kill()
		}
		live.Unlock()
		os.Exit(1)
	}()
}

// daemonProc is one monsoond child on a loopback port.
type daemonProc struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	// drained closes when the child's stderr reached EOF.
	drained chan struct{}
	mu      sync.Mutex
	tail    bytes.Buffer // last stderr output, for error reports
	stopped bool
	// maxRSSKB is the child's peak resident set, known once it has stopped.
	maxRSSKB int64
}

var servingLine = regexp.MustCompile(`on http://(\S+)`)

// startDaemon boots monsoond at the small scale with default flags and waits
// until /healthz answers. The port is the kernel's choice, read back from the
// daemon's own announcement.
func startDaemon(bin, bench string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-bench", bench, "-scale", "small",
		"-seed", fmt.Sprint(dataSeed))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start monsoond: %w", err)
	}
	d := &daemonProc{
		cmd:     cmd,
		drained: make(chan struct{}),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConns: openConns, MaxIdleConnsPerHost: openConns},
		},
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*daemonProc]struct{})
	}
	live.procs[d] = struct{}{}
	live.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			d.mu.Lock()
			if d.tail.Len() > 1<<14 {
				d.tail.Reset()
			}
			d.tail.WriteString(line + "\n")
			d.mu.Unlock()
		}
	}()

	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("monsoond exited before serving:\n%s", d.stderrTail())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("monsoond did not announce its address within 60s:\n%s", d.stderrTail())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("monsoond /healthz not ready within 30s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemonProc) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tail.String()
}

// stop terminates the child and waits for it: SIGTERM first (the daemon drains
// and exits 0), SIGKILL if it has not gone within five seconds. Idempotent.
func (d *daemonProc) stop() {
	if d == nil || d.stopped {
		return
	}
	d.stopped = true
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	killer := time.AfterFunc(5*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.drained // Wait closes the pipe; read it dry first
	_ = d.cmd.Wait()
	killer.Stop()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.maxRSSKB = ru.Maxrss
	}
	live.Lock()
	delete(live.procs, d)
	live.Unlock()
}

// names lists the daemon's servable queries, sorted (the daemon sorts them).
func (d *daemonProc) names() ([]string, error) {
	resp, err := d.client.Get(d.url + "/queries")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, fmt.Errorf("decode /queries: %w", err)
	}
	return names, nil
}

// counter reads one counter from the daemon's /debug/vars; absent reads as 0.
func (d *daemonProc) counter(name string) (float64, error) {
	resp, err := d.client.Get(d.url + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	raw, ok := vars[name]
	if !ok {
		return 0, nil
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("/debug/vars %s: %w", name, err)
	}
	return v, nil
}

// reply is what one operation returned. A transport error, a non-200 status
// (429 and 504 included: reported, never retried) or a wrong answer fails it.
type reply struct {
	status int
	err    error
	body   daemon.QueryResponse
}

// query sends one operation to /query and decodes the answer.
func (d *daemonProc) query(o op) reply {
	req := daemon.QueryRequest{Query: o.Query}
	if o.Cold {
		req.Seed = &o.Seed
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	resp, err := d.client.Post(d.url+"/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	if err := json.NewDecoder(resp.Body).Decode(&r.body); err != nil {
		r.err = fmt.Errorf("decode /query reply: %w", err)
	}
	return r
}
