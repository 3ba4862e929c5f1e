package main

import (
	"bufio"
	"context"
	"errors"
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

// Deadlines on every wait the harness makes on a child. readyDeadline
// is a variable so the self-test can shorten it.
var readyDeadline = 60 * time.Second

const stopDeadline = 15 * time.Second

// children tracks every live child so a failing run can kill them all
// before it exits.
var children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

func killAllChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// child is one process under test. Its stdout is scanned line by line
// (the ready banner, then whatever follows); stderr is kept for error
// reports.
type child struct {
	cmd    *exec.Cmd
	lines  chan string // stdout lines; closed at EOF
	stderr *tailBuffer
	waited chan struct{} // closed once cmd.Wait returned
	err    error         // cmd.Wait's result, valid after waited
}

// startChild starts argv with the given extra environment. The child
// dies with the harness (Pdeathsig), so a killed harness leaks nothing.
func startChild(argv []string, env ...string) (*child, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{
		cmd:    cmd,
		lines:  make(chan string, 64), // banner lines written before anyone reads
		stderr: &tailBuffer{max: 4 << 10},
		waited: make(chan struct{}),
	}
	cmd.Stderr = c.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", argv[0], err)
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 256<<20) // the batch child's result is one long line
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		close(c.lines)
		c.err = cmd.Wait()
		children.mu.Lock()
		delete(children.live, c)
		children.mu.Unlock()
		close(c.waited)
	}()
	return c, nil
}

// waitLine returns the first stdout line for which match reports true,
// or an error when the child exits or the deadline passes first.
func (c *child) waitLine(deadline time.Duration, match func(string) bool) (string, error) {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				<-c.waited
				return "", fmt.Errorf("child exited before it was ready: %v: %s", c.err, c.stderr.String())
			}
			if match(line) {
				return line, nil
			}
		case <-timer.C:
			return "", fmt.Errorf("child not ready after %v: %s", deadline, c.stderr.String())
		}
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	c.drain(stopDeadline)
}

// drain discards remaining output until the process has been reaped or
// the deadline passes; it reports whether the process ended.
func (c *child) drain(deadline time.Duration) bool {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case _, ok := <-c.lines:
			if !ok {
				<-c.waited
				return true
			}
		case <-timer.C:
			return false
		}
	}
}

// procUsage is what /proc says about a live process.
type procUsage struct {
	peakRSSBytes int64         // VmHWM
	rssBytes     int64         // VmRSS
	cpu          time.Duration // utime + stime
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// readUsage reads memory and CPU time of pid from /proc.
func readUsage(pid int) (procUsage, error) {
	var u procUsage
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseInt(f[1], 10, 64)
		switch f[0] {
		case "VmHWM:":
			u.peakRSSBytes = kb << 10
		case "VmRSS:":
			u.rssBytes = kb << 10
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	u.cpu = time.Duration(utime+stime) * clockTick
	return u, nil
}

// hostSteal is the CPU time, summed over all CPUs, that the hypervisor
// gave to someone else while this machine wanted it (the steal column
// of /proc/stat); 0 where the kernel does not say.
func hostSteal() time.Duration {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * clockTick
}

// stealShare is the share of the machine's CPU time stolen since the
// reading before, taken when a window of length wall began.
func stealShare(before time.Duration, wall time.Duration) float64 {
	return ratio((hostSteal() - before).Seconds(), wall.Seconds()*float64(numCPU()))
}

func (c *child) usage() (procUsage, error) { return readUsage(c.cmd.Process.Pid) }

// resetPeakRSS makes the child's VmHWM start over from its current
// resident set size (Linux: "5" written to /proc/<pid>/clear_refs).
func (c *child) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", c.cmd.Process.Pid), []byte("5"), 0)
}

// rssSampler reads a child's resident set size ten times a second, so
// that memory can be reported as what the process typically holds and
// not only as its highest moment.
type rssSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	mb   []float64
}

func (c *child) sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if u, err := c.usage(); err == nil {
				s.mb = append(s.mb, float64(u.rssBytes)/(1<<20))
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the readings in MB.
func (s *rssSampler) stop() []float64 {
	close(s.quit)
	s.wg.Wait()
	return s.mb
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > b.max {
		b.buf = b.buf[len(b.buf)-b.max:]
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.TrimSpace(string(b.buf))
}

// server is a kcored child that answered /healthz.
type server struct {
	*child
	url    string
	readyS float64 // process start until /healthz answered
}

// listenBanner is the line kcored prints once its listener is bound.
const listenBanner = "kcored: listening on "

// parseBanner extracts the base URL from kcored's listen banner.
func parseBanner(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, listenBanner)
	if !ok {
		return "", false
	}
	url, _, _ := strings.Cut(rest, " ")
	return url, strings.HasPrefix(url, "http://")
}

// startKcored runs the kcored binary on port 0 with GOMAXPROCS=2, reads
// the resolved address from its banner and waits until /healthz
// answers 200. On any failure the process is killed before returning.
func startKcored(bin string, args ...string) (*server, error) {
	start := time.Now()
	argv := append([]string{bin, "-addr", "127.0.0.1:0"}, args...)
	c, err := startChild(argv, "GOMAXPROCS=2")
	if err != nil {
		return nil, err
	}
	var url string
	_, err = c.waitLine(readyDeadline, func(line string) bool {
		u, ok := parseBanner(line)
		url = u
		return ok
	})
	if err == nil {
		err = waitHealthy(url, readyDeadline)
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("kcored %s: %w", strings.Join(args, " "), err)
	}
	s := &server{child: c, url: url, readyS: time.Since(start).Seconds()}
	go func() { // keep the pipe drained so kcored never blocks on a log line
		for range c.lines {
		}
	}()
	return s, nil
}

func waitHealthy(url string, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is what matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("not healthy after %v: %w", deadline, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// buildKcored compiles cmd/kcored of the checkout at root into outDir.
func buildKcored(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "kcored")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kcored")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kcored: %w: %s", err, out)
	}
	return bin, nil
}

// errNoCheckout reports that the benchmark is not running inside a
// checkout of the repository it measures.
var errNoCheckout = errors.New("bench: no kcore checkout around the working directory (want BENCHMARK.json next to cmd/kcored)")

// findRoot walks up from the working directory to the checkout root:
// the directory holding BENCHMARK.json and cmd/kcored.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "kcored")); err == nil {
				return dir, nil
			}
			return "", errNoCheckout
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errNoCheckout
		}
		dir = parent
	}
}
