package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
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

// serverProc is one cws-serve process under test.
type serverProc struct {
	addr string
	dir  string // its -data-dir
	args []string
	cmd  *exec.Cmd
	log  *os.File
	done chan error // receives cmd.Wait's result once the process exits
}

// startServer launches bin with args, logging to logPath. It returns once
// the process has started; waitReady waits until it serves.
func startServer(bin, addr, dir, logPath string, args []string) (*serverProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping it (a crash, SIGKILL), the
	// kernel kills the server too. The benchmark locks no goroutine to an
	// OS thread, so the spawning thread lives as long as the process.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// Started under the lock, so that no server starts after killLive.
	live.Lock()
	defer live.Unlock()
	if live.closed {
		logf.Close()
		return nil, fmt.Errorf("benchmark is exiting; not starting %s", bin)
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{addr: addr, dir: dir, args: args, cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	live.procs[p] = true
	return p, nil
}

// live is every server process started and not yet stopped, so that an
// interrupted benchmark can stop them before it exits.
var live = struct {
	sync.Mutex
	procs  map[*serverProc]bool
	closed bool // set by killLive: start no more servers
}{procs: map[*serverProc]bool{}}

// killLive kills every live server process, waits for each to exit, and
// stops any further server from starting.
func killLive() {
	live.Lock()
	defer live.Unlock()
	live.closed = true
	for p := range live.procs {
		_ = p.cmd.Process.Kill()
		<-p.done
		delete(live.procs, p)
	}
}

// waitReady polls GET /healthz/ready until it answers 200.
func (p *serverProc) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("server %s exited before it was ready: %v (log %s)", p.addr, err, p.log.Name())
		default:
		}
		resp, err := c.Get("http://" + p.addr + "/healthz/ready")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server %s not ready after %v (log %s)", p.addr, timeout, p.log.Name())
}

// stop ends the process with SIGTERM (a graceful drain) and waits for it,
// killing it if it has not exited within 20 s.
func (p *serverProc) stop() error {
	if p == nil || p.cmd.Process == nil {
		return nil
	}
	defer p.log.Close()
	defer func() {
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
	}()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		p.done <- err
		return err
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		err := <-p.done
		p.done <- err
		return fmt.Errorf("server %s ignored SIGTERM; killed", p.addr)
	}
}

// peakRSSMB reads the process's high-water resident set size (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 || fields[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// freeAddrs returns n loopback addresses whose ports were free a moment
// ago. Cluster members must know every peer's address before any starts,
// so ports are picked here rather than by the servers.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// scrape reads GET /metrics and returns every unlabelled and labelled
// sample as name{labels} → value.
func scrape(c *http.Client, addr string) (map[string]float64, error) {
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", addr, resp.StatusCode)
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[string(line[:i])] = v
	}
	return out, nil
}

// copyFiles copies the regular files of directory src into a new
// directory dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cpuTicks reads the machine's steal and total CPU time, in clock ticks,
// from the first line of /proc/stat.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	return parseCPULine(line)
}

// parseCPULine parses the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already counted in user and nice, so it is left out of the total.
func parseCPULine(line string) (steal, total uint64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
