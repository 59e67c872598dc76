package main

// The daemon under test: built from the checkout's source, started
// fresh for every run on a kernel-chosen loopback port, observed
// through /proc and /metrics, and stopped before the run returns.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/sqlcheckd of the checkout at root.
func buildDaemon(root, dir string) (string, error) {
	bin := dir + "/sqlcheckd"
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sqlcheckd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sqlcheckd: %v\n%s", err, out)
	}
	return bin, nil
}

type daemon struct {
	cmd  *exec.Cmd
	base string
	// done closes once the process has exited and its log is drained.
	done    chan struct{}
	waitErr error

	logMu   sync.Mutex
	logTail []string
}

// startDaemon execs the daemon on 127.0.0.1:0 and waits for the
// "listening on" line that names the port the kernel chose.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The kernel kills the daemon if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sqlcheckd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		const marker = "listening on "
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logLine(line)
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len(marker):]):
				default:
				}
			}
		}
		// Wait only after the pipe is drained, as os/exec requires.
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("sqlcheckd exited before listening: %v\n%s", d.waitErr, d.log())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("sqlcheckd did not report its address within 30s\n%s", d.log())
	}
}

func (d *daemon) logLine(line string) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if len(d.logTail) == 20 {
		d.logTail = d.logTail[1:]
	}
	d.logTail = append(d.logTail, line)
}

func (d *daemon) log() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logTail, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, which drains and checkpoints, and waits for the
// exit; past the grace period it kills. A non-clean exit is an error.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		if d.waitErr != nil {
			return fmt.Errorf("sqlcheckd exited uncleanly: %v\n%s", d.waitErr, d.log())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("sqlcheckd ignored SIGTERM for 30s\n%s", d.log())
	}
}

// kill ends the process at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuTime is the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] { // utime and stime, fields 14 and 15
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSMiB is the daemon's VmHWM, its peak resident set.
func (d *daemon) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.pid()) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// conn is one client connection: a transport that keeps at most one
// connection, so a run never holds more than two.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// do sends one request and reads the whole response body into c.buf.
func (c *conn) do(method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// counters is one /metrics scrape, keyed by the exposition line's
// name and labels, e.g. `sqlcheck_phase_seconds_sum{phase="parse"}`.
type counters map[string]float64

// scrape reads the Prometheus rendering, the only one that also
// carries the daemon's HTTP counters.
func scrape(c *conn) (counters, error) {
	status, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := counters{}
	for _, line := range strings.Split(c.buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("/metrics: bad line %q", line)
		}
		out[line[:i]] = v
	}
	return out, nil
}
