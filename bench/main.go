// Command bench is the repository's benchmark. For one workload it
// boots the shipped pbtree-server fresh, drives it from this process
// over at most two connections in a closed loop, checks every answer,
// and prints every end-to-end metric by name and unit. With --trace 1
// it instead makes a traced run: an untraced and a traced served phase,
// then an in-process replay of the same op stream that times each
// layer's public calls, and prints the per-layer metrics.
//
// Build and run it through run.sh from the repository root:
//
//	bash bench/run.sh --workload point-seq --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; a human-readable
// table precedes it, and a full record (host, flags, sample counts,
// span self times) goes to .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric. For a per-layer metric, Moves
// is the end-to-end metric it should move, On the workload where it
// should, and Flat a workload where the prediction is no change.
type metricDef struct {
	Name, Unit, Better string
	Moves, On, Flat    string
}

// endToEnd are the metrics a user of the server sees, each measured on
// every workload. Per-class latencies (p50, p90, p99 with sample counts)
// of the classes a mix issues are printed and recorded beside them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "get_p50_us", Unit: "us", Better: "lower"},
	{Name: "get_p90_us", Unit: "us", Better: "lower"},
	{Name: "ok_frac", Unit: "fraction", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "space_amp", Unit: "ratio", Better: "lower"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{"serve.search.batch_wait_us", "us", "lower", "get_p50_us", "point-seq", "read-pipe"},
	{"serve.search.admission_us", "us", "lower", "get_p90_us", "read-pipe", "point-seq"},
	{"serve.search.exec_us", "us", "lower", "get_p50_us", "read-pipe", "point-seq"},
	{"serve.scan.exec_us", "us", "lower", "ops_per_s (scan and stream p50 in the class table)", "read-pipe", ""},
	{"serve.insert.queue_wait_us", "us", "lower", "ops_per_s (write p50 in the class table)", "ingest", "point-seq"},
	{"serve.insert.apply_us", "us", "lower", "ops_per_s (write p50 in the class table)", "ingest", "point-seq"},
	{"serve.insert.wal_append_us", "us", "lower", "ops_per_s (write p99 in the class table)", "ingest", "point-seq"},
	{"serve.insert.wal_fsync_us", "us", "lower", "ops_per_s (write p99 in the class table)", "ingest", "point-seq"},
	{"serve.cpu_us_per_op", "us", "lower", "ops_per_s", "read-pipe, ingest", ""},
	{"serve.ctx_switches_per_op", "count", "lower", "get_p50_us", "point-seq", "read-pipe"},
	{"serve.gc_cpu_frac", "fraction", "lower", "ops_per_s (write p99 in the class table)", "ingest", ""},
	{"serve.trace_overhead_frac", "fraction", "lower", "none: must stay small", "all", ""},
	{"wire.encode_ns", "ns", "lower", "ops_per_s", "read-pipe (small share)", ""},
	{"wire.decode_ns", "ns", "lower", "ops_per_s", "read-pipe (small share)", ""},
	{"wire.bytes_per_op", "B", "lower", "ops_per_s", "read-pipe (small share)", ""},
	{"store.get_ns", "ns", "lower", "get_p50_us", "read-pipe", "point-seq"},
	{"store.mget_ns_per_key", "ns", "lower", "ops_per_s (mget p50 in the class table)", "read-pipe", "point-seq"},
	{"store.scan_ns_per_row", "ns", "lower", "ops_per_s (scan p50 in the class table)", "read-pipe", ""},
	{"store.cursor_ns_per_row", "ns", "lower", "ops_per_s (stream p50 in the class table)", "read-pipe", ""},
	{"store.put_us", "us", "lower", "ops_per_s (write p50 in the class table)", "ingest", "point-seq"},
	{"store.put_p99_us", "us", "lower", "ops_per_s (write p99 in the class table)", "ingest", "point-seq"},
	{"backend.apply_ns_per_write", "ns", "lower", "ops_per_s (write p50 in the class table)", "ingest", ""},
	{"backend.apply_pinned_ms", "ms", "lower", "ops_per_s (write p50 in the class table)", "a mix writing under open cursors (none kept)", "ingest"},
	{"backend.snapshot_ns", "ns", "lower", "get_p50_us", "read-pipe (small)", ""},
	{"core.search_ns", "ns", "lower", "get_p50_us", "read-pipe", "point-seq"},
	{"core.search_batch_ns_per_key", "ns", "lower", "ops_per_s (mget p50 in the class table)", "read-pipe", "point-seq"},
	{"core.scan_ns_per_row", "ns", "lower", "ops_per_s (scan and stream p50 in the class table)", "read-pipe", ""},
	{"core.insert_ns", "ns", "lower", "ops_per_s (write p50 in the class table)", "ingest", ""},
	{"core.delete_ns", "ns", "lower", "ops_per_s (write p50 in the class table)", "ingest", ""},
	{"core.clone_ms", "ms", "lower", "ops_per_s (write p50 in the class table)", "a mix writing under open cursors (none kept)", "ingest"},
	{"core.prefetches_per_search", "count", "lower", "get_p50_us", "read-pipe", ""},
	{"core.prefetches_per_scan_row", "count", "lower", "ops_per_s (stream p50 in the class table)", "read-pipe", ""},
	{"memsys.sim_cycles_per_search", "cycles", "lower", "get_p50_us, via core.search_ns", "read-pipe", ""},
	{"memsys.sim_stall_frac_search", "fraction", "lower", "get_p50_us, via core.search_ns", "read-pipe", ""},
	{"memsys.sim_cycles_per_scan_row", "cycles", "lower", "ops_per_s, via core.scan_ns_per_row", "read-pipe", ""},
	{"storage.wal_bytes_per_write", "B", "lower", "space_amp, ops_per_s", "ingest", "point-seq"},
	{"storage.writes_per_wal_append", "count", "higher", "ops_per_s (write p50 in the class table)", "ingest", "point-seq"},
	{"storage.fsyncs_per_s", "1/s", "lower", "ops_per_s (write p99 in the class table)", "ingest", "point-seq"},
	{"storage.checkpoints_per_kwrite", "count", "lower", "space_amp, ops_per_s", "ingest", "point-seq"},
	{"storage.dirty_bytes_per_user_byte", "ratio", "lower", "space_amp", "ingest", "point-seq"},
}

// warmUp is discarded before each measured window: the first seconds
// of a fresh server run slower (page faults, heap growth).
const warmUp = 2 * time.Second

// setupReps is how many times a run boots the server to time set-up;
// the last boot serves the load.
const setupReps = 5

// stopGrace separates a set-up repetition's first answer from its
// SIGTERM. pbtree-server logs "serving" before it installs its signal
// handler, so a SIGTERM sent at once can kill it before it can drain.
const stopGrace = 200 * time.Millisecond

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	server   string
	out      string
	keys     int // overrides the workload's preloaded key count (tests)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated op stream")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per served phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", ".bench_build/pbtree-server", "pbtree-server binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for temp data, results and traces")
	flag.Parse()
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result kept under <out>/results.
type record struct {
	Workload string             `json:"workload"`
	Why      string             `json:"why"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Flags    []string           `json:"server_flags"`
	Latency  map[string]latency `json:"latency,omitempty"`
	Result   result             `json:"result"`
	SelfTime map[string]float64 `json:"span_self_ms,omitempty"`
	SimKeys  int                `json:"sim_tree_keys,omitempty"`
	Replay   *serverDefaults    `json:"replay_server_defaults,omitempty"`
	WrongN   int                `json:"wrong"`
	Wrong    []string           `json:"wrong_answers,omitempty"` // the first few
	Spans    string             `json:"spans_file,omitempty"`
}

func run(o options, stdout io.Writer) (int, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return 0, err
	}
	if o.keys > 0 {
		w.Keys = o.keys
	}
	if w.Keys < 2*w.slots() || w.Keys > maxKeys {
		return 0, fmt.Errorf("key count %d outside [%d, %d]", w.Keys, 2*w.slots(), maxKeys)
	}
	if o.seconds < 1 {
		return 0, fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(o.server); err != nil {
		return 0, fmt.Errorf("server binary: %w", err)
	}
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, err
	}
	rec := &record{Workload: w.Name, Why: w.Why, Seed: o.seed, Trace: o.trace != 0}
	var res *result
	if o.trace == 0 {
		res, err = untraced(o, &w, tmp, rec)
	} else {
		res, err = traced(o, &w, tmp, rec)
	}
	if err != nil {
		return 0, err
	}
	rec.Result = *res
	printTable(stdout, rec)
	if err := writeJSON(filepath.Join(o.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, o.seed, o.trace)), rec); err != nil {
		return 0, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// served is one served phase's outcome.
type served struct {
	t       *tally // the window's ops, and wrong answers from any time
	window  time.Duration
	hwmKB   uint64
	live    int   // keys at the end
	dirSize int64 // data-dir bytes at the end
	shards  int
	args    []string
	start   time.Time          // the server's exec
	layer   map[string]float64 // traced phase only
	// stealFrac is the share of the host's CPU time the hypervisor
	// stole while the load ran: the noise other tenants add.
	stealFrac float64
	cpuPerOp  float64 // server CPU µs per correctly answered op
}

func (s *served) opsPerSec() float64 { return rate(s.t, s.window) }

// untraced is the end-to-end run: time set-up setupReps times, drive
// the load on the last server, and stop it with a checked drain.
func untraced(o options, w *workload, tmp string, rec *record) (*result, error) {
	var setups []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		s, d, err := startServer(o.server, w, tmp, false, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			time.Sleep(stopGrace)
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	ph, err := servePhase(srv, o, w, false)
	if err != nil {
		return nil, err
	}
	rec.describe(ph)
	rec.WrongN, rec.Wrong = ph.t.wrongN, ph.t.wrong
	rec.Latency = map[string]latency{}
	for c := 0; c < numClasses; c++ {
		if w.hasClass(c) {
			rec.Latency[classNames[c]] = summarize(ph.t.lat[c])
		}
	}
	get := rec.Latency[classNames[cGet]]
	mt := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   ph.opsPerSec(),
		"get_p50_us":  float64(get.P50) / 1e3,
		"get_p90_us":  float64(get.P90) / 1e3,
		"ok_frac":     float64(ph.t.ok()) / float64(max(1, ph.t.attempted)),
		"peak_rss_mb": float64(ph.hwmKB) / 1024,
	}
	// Space amplification: the bytes the data occupies where it lives
	// (the data dir when durable, the peak resident set when in-memory)
	// over 8 B of key and TID per live key. In memory it is peak_rss_mb
	// over a nearly fixed key count, so it adds information only on a
	// durable workload; it is reported everywhere because every
	// workload reports the same metrics.
	held := float64(ph.dirSize)
	if !w.Durable {
		held = float64(ph.hwmKB) * 1024
	}
	mt["space_amp"] = held / float64(8*max(1, ph.live))
	return finish(ph.t, mt, endToEnd), nil
}

// finish assembles the printed result from the named metrics.
func finish(t *tally, mt map[string]float64, defs []metricDef) *result {
	res := &result{Correct: t.wrongN == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: mt[d.Name], Unit: d.Unit}
	}
	return res
}

// servePhase drives the load, samples the server's counters at the
// edges of the measured window, reads STATS, and stops the server.
// When traced, it derives the served per-layer metrics.
func servePhase(srv *server, o options, w *workload, traced bool) (*served, error) {
	ph, err := servePhaseOn(srv, o, w, traced)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return ph, nil
}

func servePhaseOn(srv *server, o options, w *workload, traced bool) (*served, error) {
	ph := &served{args: srv.args, start: srv.start}
	m := newModel(w.Keys, w.slots())
	measure := time.Duration(o.seconds) * time.Second
	warm := min(warmUp, measure)
	var edges [2]counters
	edgeErr := make(chan error, 1)
	go func() {
		var err error
		time.Sleep(warm)
		if edges[0], err = sampleCounters(srv, traced); err == nil {
			time.Sleep(measure)
			edges[1], err = sampleCounters(srv, traced)
		}
		edgeErr <- err
	}()
	t, err := drive(srv.addr, w, m, o.seed, 0, warm, measure, traced)
	if eerr := <-edgeErr; err == nil {
		err = eerr
	}
	if err != nil {
		return nil, err
	}
	ph.t, ph.window = t, measure
	a, b := edges[0], edges[1]
	if b.hostTotal > a.hostTotal {
		ph.stealFrac = float64(b.hostSteal-a.hostSteal) / float64(b.hostTotal-a.hostTotal)
	}
	ph.cpuPerOp = float64(b.proc.cpuTicks-a.proc.cpuTicks) * (1e6 / clockTicks) / float64(max(1, t.ok()))
	p, err := readProc(srv.pid())
	if err != nil {
		return nil, err
	}
	ph.hwmKB = p.hwmKB
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	ph.live, ph.shards = st.Store.Count, len(st.Store.Shards)
	if srv.dir != "" {
		if ph.dirSize, err = dirBytes(srv.dir); err != nil {
			return nil, err
		}
	}
	if traced {
		ph.layer = servedLayer(edges[0], edges[1], ph)
	}
	return ph, nil
}

// traced is the per-layer run: an untraced served phase for the
// overhead baseline, the traced served phase, then the replay.
func traced(o options, w *workload, tmp string, rec *record) (*result, error) {
	srv, _, err := startServer(o.server, w, tmp, false, false)
	if err != nil {
		return nil, err
	}
	base, err := servePhase(srv, o, w, false)
	if err != nil {
		return nil, err
	}
	if srv, _, err = startServer(o.server, w, tmp, true, true); err != nil {
		return nil, err
	}
	ph, err := servePhase(srv, o, w, true)
	if err != nil {
		return nil, err
	}
	rec.describe(ph)
	mt := ph.layer
	mt["serve.trace_overhead_frac"] = 1 - ph.opsPerSec()/base.opsPerSec()

	def, err := readServerDefaults(o.server)
	if err != nil {
		return nil, err
	}
	rec.Replay = &def
	rp, err := replay(w, def, o.seed, tmp, time.Duration(o.seconds)*time.Second/2)
	if err != nil {
		return nil, err
	}
	for k, v := range rp.metrics {
		mt[k] = v
	}
	rec.SimKeys = rp.simKeys
	rec.Latency = map[string]latency{"store.put (replay)": rp.put}
	all := &tally{}
	for _, t := range []*tally{base.t, ph.t, rp.t} {
		all.merge(t)
	}
	rec.WrongN, rec.Wrong = all.wrongN, all.wrong
	rec.SelfTime = selfTimes(ph.t.spans, rp.spans)
	rec.Spans = filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
	if err := writeTrace(rec.Spans, ph.t.spans, rp.spans); err != nil {
		return nil, err
	}
	return finish(all, mt, perLayer), nil
}

// host describes where a result was measured.
type host struct {
	CPU             string  `json:"cpu"`
	NProc           int     `json:"nproc"`
	GenGOMAXPROCS   int     `json:"generator_gomaxprocs"`
	ServerGOMAXPROC int     `json:"server_gomaxprocs"` // the server's default shard count
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"git_commit"`
	Kernel          string  `json:"kernel"`
	StealFrac       float64 `json:"steal_frac"` // CPU time stolen by the hypervisor during the load
}

// describe records the host and the server flags of a served phase.
func (rec *record) describe(ph *served) {
	rec.Host = hostInfo(ph.shards)
	rec.Host.StealFrac = ph.stealFrac
	rec.Flags = ph.args
}

func hostInfo(serverProcs int) host {
	h := host{
		CPU:             "unknown",
		NProc:           runtime.NumCPU(),
		GenGOMAXPROCS:   runtime.GOMAXPROCS(0),
		ServerGOMAXPROC: serverProcs,
		GoVersion:       runtime.Version(),
		Commit:          "unknown (not a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				h.CPU = strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every metric by name and unit, with the sample
// counts behind each percentile.
func printTable(out io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(out, "workload %s seed %d trace %v\n", rec.Workload, rec.Seed, rec.Trace)
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS generator %d server %d, %s, kernel %s, commit %s, steal %.1f%% during the load\n",
		h.CPU, h.NProc, h.GenGOMAXPROCS, h.ServerGOMAXPROC, h.GoVersion, h.Kernel, h.Commit, 100*h.StealFrac)
	fmt.Fprintf(out, "server flags: %s\n", strings.Join(rec.Flags, " "))
	var names []string
	for name := range rec.Latency {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, c := range names {
		if l := rec.Latency[c]; l.N > 0 {
			p99 := fmt.Sprintf("%10.1f us", float64(l.P99)/1e3)
			if !l.P99OK {
				p99 = fmt.Sprintf("unresolved (%d samples above it, need %d)", l.Beyond99, minBeyond)
			}
			fmt.Fprintf(out, "  %-6s n=%-7d p50 %10.1f us  p90 %10.1f us  p99 %s\n",
				c, l.N, float64(l.P50)/1e3, float64(l.P90)/1e3, p99)
		}
	}
	if d := rec.Replay; d != nil {
		fmt.Fprintf(out, "replay, from the server's flag defaults: -width %d -hw-prefetch=%v -branchless=%v -gapped=%v -checkpoint-every %d -fsync-interval %v; fill %.2f (StoreConfig default, no flag)\n",
			d.Width, d.HWPrefetch, d.Branchless, d.Gapped, d.CheckpointEvery, d.FsyncInterval, storeFill)
	}
	if rec.SimKeys > 0 {
		fmt.Fprintf(out, "  simulated tree: %d keys\n", rec.SimKeys)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-36s %14.4f %-8s", d.Name, rec.Result.Metrics[d.Name].Value, d.Unit)
		if d.Moves != "" {
			fmt.Fprintf(out, " moves %s on %s", d.Moves, d.On)
			if d.Flat != "" {
				fmt.Fprintf(out, ", flat on %s", d.Flat)
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "attempted %d failed %d wrong %d\n", rec.Result.Attempted, rec.Result.Failed, rec.WrongN)
	for _, w := range rec.Wrong {
		fmt.Fprintf(out, "  wrong answer: %s\n", w)
	}
	if rec.Spans != "" {
		var names []string
		for name := range rec.SelfTime {
			names = append(names, name)
		}
		slices.Sort(names)
		fmt.Fprintln(out, "span self time:")
		for _, name := range names {
			fmt.Fprintf(out, "  %-24s %12.1f ms\n", name, rec.SelfTime[name])
		}
		fmt.Fprintf(out, "spans: %s\n", rec.Spans)
	}
}
