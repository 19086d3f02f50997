package main

import (
	"bufio"
	"encoding/json"
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

	"pbtree/internal/core"
	"pbtree/internal/serve"
)

// server is one pbtree-server process.
type server struct {
	cmd   *exec.Cmd
	args  []string
	dir   string // data dir ("" when in-memory)
	addr  string
	admin string
	exit  chan error // the process's exit status, once
	start time.Time  // when it was exec'd

	mu  sync.Mutex
	log strings.Builder // the server's stderr
}

// serverArgs are the flags a run sets: only those that define the
// workload. Everything else stays at the shipped default.
func serverArgs(w *workload, dir string, stages, admin bool) []string {
	args := []string{"-addr", "127.0.0.1:0", "-keys", strconv.Itoa(w.Keys)}
	if dir != "" {
		args = append(args, "-data-dir", dir, "-fsync", "interval")
	}
	if !stages {
		args = append(args, "-stages=false")
	}
	if admin {
		args = append(args, "-admin", "127.0.0.1:0")
	}
	return args
}

// serverDefaults are the shipped defaults of the server flags that
// shape the tree and the WAL. The traced run reads them from the
// built binary's -h output, so its replay runs the configuration the
// served phases ran, whatever the defaults are. A flag the binary
// lacks keeps the zero value: off, or the library's own default.
type serverDefaults struct {
	Width           int           `json:"width"`
	HWPrefetch      bool          `json:"hw_prefetch"`
	Branchless      bool          `json:"branchless"`
	Gapped          bool          `json:"gapped"`
	CheckpointEvery int           `json:"checkpoint_every"`
	FsyncInterval   time.Duration `json:"fsync_interval_ns"`
}

func readServerDefaults(bin string) (serverDefaults, error) {
	var d serverDefaults
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		return d, fmt.Errorf("%s -h: %v\n%s", bin, err, out)
	}
	def := parseFlagDefaults(string(out))
	if d.Width, err = atoiOrZero(def["width"]); err != nil {
		return d, fmt.Errorf("-width default: %w", err)
	}
	if d.CheckpointEvery, err = atoiOrZero(def["checkpoint-every"]); err != nil {
		return d, fmt.Errorf("-checkpoint-every default: %w", err)
	}
	if v := def["fsync-interval"]; v != "" {
		if d.FsyncInterval, err = time.ParseDuration(v); err != nil {
			return d, fmt.Errorf("-fsync-interval default: %w", err)
		}
	}
	d.HWPrefetch = def["hw-prefetch"] == "true"
	d.Branchless = def["branchless"] == "true"
	d.Gapped = def["gapped"] == "true"
	return d, nil
}

// parseFlagDefaults maps each flag in a flag.PrintDefaults listing to
// its printed default, "" when none is printed (false, 0 or empty).
func parseFlagDefaults(text string) map[string]string {
	def := map[string]string{}
	name := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "  -") {
			name = strings.TrimPrefix(strings.Fields(line)[0], "-")
			def[name] = ""
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && name != "" {
			def[name] = strings.Trim(strings.TrimSuffix(strings.TrimSpace(line[i+len("(default "):]), ")"), `"`)
		}
	}
	return def
}

func atoiOrZero(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.Atoi(s)
}

// startServer execs the server and returns once it answers a GET of
// the first preloaded key correctly, with the time that took.
func startServer(bin string, w *workload, tmp string, stages, admin bool) (*server, time.Duration, error) {
	s := &server{exit: make(chan error, 1)}
	if w.Durable {
		dir, err := os.MkdirTemp(tmp, "data-")
		if err != nil {
			return nil, 0, err
		}
		s.dir = dir
	}
	s.args = serverArgs(w, s.dir, stages, admin)
	s.cmd = exec.Command(bin, s.args...)
	// If the benchmark itself is killed, the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	ready := make(chan struct{})
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		s.removeDir()
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go s.readLog(stderr, ready, admin)
	select {
	case <-ready:
	case err := <-s.exit:
		s.exit <- err
		s.removeDir()
		return nil, 0, fmt.Errorf("server exited during start-up (%v):\n%s", err, s.logText())
	case <-time.After(2 * time.Minute):
		s.kill()
		return nil, 0, fmt.Errorf("server did not come up:\n%s", s.logText())
	}
	if err := s.firstGet(); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(s.start), nil
}

// readLog copies the server's stderr, learns its addresses from the
// "serving" and "admin plane up" lines, and reports the exit status.
func (s *server) readLog(r io.Reader, ready chan struct{}, admin bool) {
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.log.WriteString(line + "\n")
		if strings.Contains(line, `msg="admin plane up"`) {
			s.admin = field(line, "addr")
		}
		if strings.Contains(line, "msg=serving") {
			s.addr = field(line, "addr")
		}
		up := s.addr != "" && (!admin || s.admin != "")
		s.mu.Unlock()
		if up && !signalled {
			signalled = true
			close(ready)
		}
	}
	io.Copy(io.Discard, r)
	s.exit <- s.cmd.Wait()
}

// field extracts key=value from a slog text line.
func field(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return strings.Trim(v, `"`)
}

func (s *server) logText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

// firstGet polls until the first preloaded key reads back correctly.
func (s *server) firstGet() error {
	deadline := time.Now().Add(time.Minute)
	var last error
	for time.Now().Before(deadline) {
		c, err := serve.Dial(s.addr)
		if err == nil {
			tid, found, gerr := c.Get(keyAt(0, 0))
			c.Close()
			if gerr == nil && found && tid == core.TID(1) {
				return nil
			}
			last = fmt.Errorf("first GET: tid=%d found=%v err=%v", tid, found, gerr)
		} else {
			last = err
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server never answered the first GET: %v", last)
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// server's "drained cleanly" line.
func (s *server) stop() error {
	defer s.removeDir()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case err := <-s.exit:
		if err != nil {
			return fmt.Errorf("server drain: %v\n%s", err, s.logText())
		}
	case <-time.After(time.Minute):
		s.kill()
		return fmt.Errorf("server did not drain within a minute:\n%s", s.logText())
	}
	if !strings.Contains(s.logText(), "drained cleanly") {
		return fmt.Errorf("server exited without a clean drain:\n%s", s.logText())
	}
	return nil
}

// kill ends the process and waits for it (error paths only).
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exit
	s.removeDir()
}

func (s *server) removeDir() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stats fetches and decodes the server's STATS payload.
func (s *server) stats() (*serve.ServerStats, error) {
	c, err := serve.Dial(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	raw, err := c.Stats()
	if err != nil {
		return nil, err
	}
	var st serve.ServerStats
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("decode STATS: %w", err)
	}
	return &st, nil
}

// vars is the part of the admin plane's /debug/vars the benchmark reads.
type vars struct {
	Pbtree struct {
		Durability struct {
			WALAppends  uint64 `json:"wal_appends"`
			WALBytes    uint64 `json:"wal_bytes"`
			Fsyncs      uint64 `json:"fsyncs"`
			Checkpoints uint64 `json:"checkpoints"`
		} `json:"durability"`
	} `json:"pbtree"`
	Memstats struct {
		GCCPUFraction float64
		NumGC         uint32
		LastGC        uint64 // ns since the Unix epoch
	} `json:"memstats"`
}

func (s *server) debugVars() (*vars, error) {
	resp, err := http.Get("http://" + s.admin + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: %s", resp.Status)
	}
	var v vars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return &v, nil
}

// procSample is what /proc tells about the server process.
type procSample struct {
	at          time.Time
	cpuTicks    uint64 // utime + stime, in clock ticks
	ctxSwitches uint64 // voluntary + involuntary, all threads
	writeBytes  uint64 // /proc/<pid>/io write_bytes (0 when unreadable)
	hwmKB       uint64 // VmHWM
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	p := procSample{at: time.Now()}
	base := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesized command name; utime and stime
	// are fields 14 and 15 of the whole line.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+2:]))
	if len(f) < 13 {
		return p, fmt.Errorf("short %s/stat", base)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	p.cpuTicks = ut + st
	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return p, err
	}
	p.hwmKB = statusField(string(status), "VmHWM:")
	tasks, _ := filepath.Glob(base + "/task/*/status")
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		p.ctxSwitches += statusField(string(b), "voluntary_ctxt_switches:") +
			statusField(string(b), "nonvoluntary_ctxt_switches:")
	}
	if io, err := os.ReadFile(base + "/io"); err == nil {
		p.writeBytes = statusField(string(io), "write_bytes:")
	}
	return p, nil
}

func statusField(text, key string) uint64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseUint(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if errors.Is(err, os.ErrNotExist) {
				return nil // pruned while walking
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// cpuTimes reads the host's aggregate CPU ticks from /proc/stat: the
// ticks stolen by the hypervisor and the total.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}
