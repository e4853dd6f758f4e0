package main

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
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

// server is one cmd/ojoinserver child process listening on loopback.
type server struct {
	cmd      *exec.Cmd
	addr     string // block protocol
	httpAddr string // /healthz, /metrics
	done     chan struct{}
}

// children tracks every live child so the watchdog can kill them all.
var children struct {
	sync.Mutex
	set map[*server]bool
}

func track(s *server, live bool) {
	children.Lock()
	defer children.Unlock()
	if children.set == nil {
		children.set = make(map[*server]bool)
	}
	if live {
		children.set[s] = true
	} else {
		delete(children.set, s)
	}
}

// killChildren SIGKILLs every tracked child and waits for each to exit.
func killChildren() {
	children.Lock()
	live := make([]*server, 0, len(children.set))
	for s := range children.set {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		_ = s.cmd.Process.Kill() // already-exited children return an error we do not need
		<-s.done
	}
}

// startServer launches bin on ephemeral loopback ports, learns the bound
// addresses from its log, and waits until /healthz answers. dataDir != ""
// makes the server disk-backed with the given group-commit interval. The
// server's log goes to logPath.
func startServer(bin, logPath, dataDir string, syncEvery int) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-drain-timeout", "1s", "-trace-buffer", "65536"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-sync-every", strconv.Itoa(syncEvery))
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// The kernel kills the server if the benchmark itself dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	track(s, true)

	addrs := make(chan [2]string, 1)
	go func() {
		// Copy the whole log, so the server never blocks on a full pipe,
		// and report the two bound addresses once both are printed.
		defer logf.Close()
		var addr, httpAddr string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on "); i >= 0 && addr == "" {
				addr = strings.TrimSpace(line[i+len("listening on "):])
			}
			if i := strings.Index(line, "observability on http://"); i >= 0 && httpAddr == "" {
				httpAddr, _, _ = strings.Cut(line[i+len("observability on http://"):], " ")
				addrs <- [2]string{addr, httpAddr}
			}
		}
		_, _ = io.Copy(logf, stderr) // drain anything after a scanner error
	}()
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop is not a result
		track(s, false)
		close(s.done)
	}()

	select {
	case a := <-addrs:
		s.addr, s.httpAddr = a[0], a[1]
	case <-s.done:
		return nil, fmt.Errorf("ojoinserver exited during start-up (see %s)", logPath)
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ojoinserver did not report its addresses (see %s)", logPath)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + s.httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ojoinserver %s never became healthy", s.httpAddr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the server to drain and exit, killing it if it has not exited
// within five seconds, and returns once the process is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// scrape reads the server's Prometheus text exposition into a map from
// series ("name" or "name{labels}") to value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// cpuTime returns the CPU time the server process's threads have run, in
// nanoseconds, from /proc/<pid>/task/*/schedstat (whose clock, unlike the
// 10 ms ticks of /proc/<pid>/stat, resolves a single set-up). Time the
// hypervisor stole is not in it.
func (s *server) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the directory was read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
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
