package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pbtree/internal/serve"
)

// counters is one sample of the server's counters: its /proc entries
// and the host's CPU ticks, and on a traced run STATS and the admin
// plane's /debug/vars.
type counters struct {
	proc                 procSample
	hostSteal, hostTotal uint64
	stats                *serve.ServerStats
	vars                 *vars
}

func sampleCounters(srv *server, traced bool) (counters, error) {
	var c counters
	var err error
	c.hostSteal, c.hostTotal = cpuTimes()
	if c.proc, err = readProc(srv.pid()); err != nil || !traced {
		return c, err
	}
	if c.stats, err = srv.stats(); err != nil {
		return c, err
	}
	c.vars, err = srv.debugVars()
	return c, err
}

// stageMeanUS is the mean time per request of class spent in stage
// between two STATS samples, in microseconds.
func stageMeanUS(a, b *serve.ServerStats, class, stage string) float64 {
	n := b.StageTotals[class].Count - a.StageTotals[class].Count
	if n == 0 {
		return 0
	}
	ns := b.Stages[class][stage].SumNS - a.Stages[class][stage].SumNS
	return float64(ns) / float64(n) / 1e3
}

// servedLayer derives the served phase's per-layer metrics from the
// counters sampled at the edges of the measured window. A stage of an
// op class the mix does not issue reads 0.
func servedLayer(a, b counters, ph *served) map[string]float64 {
	mt := map[string]float64{}
	for _, s := range []struct{ name, class, stage string }{
		{"serve.search.batch_wait_us", "search", "batch_wait"},
		{"serve.search.admission_us", "search", "admission"},
		{"serve.search.exec_us", "search", "exec"},
		{"serve.scan.exec_us", "scan", "exec"},
		{"serve.insert.queue_wait_us", "insert", "queue_wait"},
		{"serve.insert.apply_us", "insert", "apply"},
		{"serve.insert.wal_append_us", "insert", "wal_append"},
		{"serve.insert.wal_fsync_us", "insert", "wal_fsync"},
	} {
		mt[s.name] = stageMeanUS(a.stats, b.stats, s.class, s.stage)
	}
	ops := float64(max(1, ph.t.ok()))
	mt["serve.cpu_us_per_op"] = ph.cpuPerOp
	mt["serve.ctx_switches_per_op"] = float64(b.proc.ctxSwitches-a.proc.ctxSwitches) / ops
	mt["serve.gc_cpu_frac"] = gcCPUFrac(a.vars, b.vars, ph.start)

	writes := float64(b.stats.Ops["put"] + b.stats.Ops["del"] - a.stats.Ops["put"] - a.stats.Ops["del"])
	da, db := a.vars.Pbtree.Durability, b.vars.Pbtree.Durability
	if writes > 0 {
		mt["storage.wal_bytes_per_write"] = float64(db.WALBytes-da.WALBytes) / writes
		mt["storage.checkpoints_per_kwrite"] = float64(db.Checkpoints-da.Checkpoints) * 1000 / writes
		mt["storage.dirty_bytes_per_user_byte"] = float64(b.proc.writeBytes-a.proc.writeBytes) / (8 * writes)
	}
	if appends := db.WALAppends - da.WALAppends; appends > 0 {
		mt["storage.writes_per_wal_append"] = writes / float64(appends)
	}
	mt["storage.fsyncs_per_s"] = float64(db.Fsyncs-da.Fsyncs) / b.proc.at.Sub(a.proc.at).Seconds()
	return mt
}

// gcCPUFrac is the GC's share of the server's available CPU time
// between the last collections before the two samples, which bracket
// the measured window. The runtime's GCCPUFraction is a share since
// the process started, updated as each collection ends, so
// GCCPUFraction × (LastGC − start) is the GC time up to LastGC. With
// no collection before the first sample, that time is zero at start.
func gcCPUFrac(a, b *vars, start time.Time) float64 {
	ma, mb := a.Memstats, b.Memstats
	if mb.NumGC == ma.NumGC {
		return 0
	}
	since := func(lastGC uint64) float64 { return time.Unix(0, int64(lastGC)).Sub(start).Seconds() }
	ta, tb := 0.0, since(mb.LastGC)
	if ma.NumGC > 0 {
		ta = since(ma.LastGC)
	}
	return (mb.GCCPUFraction*tb - ma.GCCPUFraction*ta) / (tb - ta)
}

// selfTimes sums each span name's self time in milliseconds: its
// duration minus the part of it its child spans cover.
func selfTimes(sets ...[]span) map[string]float64 {
	out := map[string]float64{}
	for _, spans := range sets {
		children := map[int][]int{}
		for i, s := range spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], i)
			}
		}
		for i, s := range spans {
			self := s.End.Sub(s.Start) - covered(spans, children[i], s.Start, s.End)
			out[s.Name] += float64(self.Nanoseconds()) / 1e6
		}
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to [from, to].
func covered(spans []span, kids []int, from, to time.Time) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Time{spans[k].Start, spans[k].End})
	}
	slices.SortFunc(iv, func(x, y [2]time.Time) int { return x[0].Compare(y[0]) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, v := range iv {
		s, e := v[0], v[1]
		if s.Before(from) {
			s = from
		}
		if e.After(to) {
			e = to
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

// traceEvent is one Chrome trace-event ("X" complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"` // 1 served, 2 replay
	TID  int            `json:"tid"` // connection
	Args map[string]int `json:"args"`
}

// writeTrace writes the served and replay spans as a Chrome trace
// (load at ui.perfetto.dev).
func writeTrace(path string, served, replayed []span) error {
	var t0 time.Time
	for _, set := range [][]span{served, replayed} {
		for _, s := range set {
			if t0.IsZero() || s.Start.Before(t0) {
				t0 = s.Start
			}
		}
	}
	ev := make([]traceEvent, 0, len(served)+len(replayed))
	for pid, set := range [][]span{served, replayed} {
		for _, s := range set {
			ev = append(ev, traceEvent{
				Name: s.Name, Ph: "X",
				TS:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
				Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
				PID: pid + 1, TID: s.Conn,
				Args: map[string]int{"op": s.Op, "parent": s.Parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": ev}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
