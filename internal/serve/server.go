package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/obs"
)

// ServerConfig configures the TCP front end.
type ServerConfig struct {
	// Addr is the listen address, e.g. "127.0.0.1:7070". ":0" picks a
	// free port (see Server.Addr).
	Addr string

	// MaxInflight is the legacy flat in-flight bound; it now seeds
	// Admission.ReadTokens when that is zero. Prefer Admission.
	MaxInflight int

	// Admission sets the per-op-class token budgets; a request whose
	// class budget is exhausted is rejected with StatusRetry and the
	// class's retry-after hint instead of queueing without bound.
	Admission AdmissionConfig

	// RetryAfter is the base backoff hint the class-specific hints in
	// Admission default from. Zero selects 5ms.
	RetryAfter time.Duration

	// Window is how many requests one protocol-v2 connection may have
	// executing concurrently: the server reads ahead up to this many
	// frames and writes responses as they complete, in any order. Zero
	// selects 32. Version-1 connections always run one at a time.
	Window int

	// DataPlane selects the execution model for pipelined connections:
	// DataPlanePool (the default) executes requests on a shared bounded
	// worker pool sized by PoolSize, so execution concurrency is a
	// server-wide constant instead of conns x Window goroutines;
	// DataPlaneGoroutine is the legacy model that spawns one goroutine
	// per in-flight request. Both planes share the wire protocol,
	// admission, and writer coalescing (DESIGN.md §15).
	DataPlane string

	// PoolSize is the worker count of the pool data plane. Zero selects
	// max(16, 4 x GOMAXPROCS). Ignored by the goroutine plane.
	PoolSize int

	// CursorTimeout reclaims streaming-scan cursors (PROTOCOL.md §10)
	// that have not seen a SCANNEXT/SCANCLOSE for this long: the
	// snapshots they pin are released and later requests against the
	// cursor answer StatusNotFound. Zero selects 30s; negative disables
	// the reaper (cursors then live until closed or their connection
	// ends).
	CursorTimeout time.Duration

	// Metrics, when non-nil, records per-operation wall-clock
	// latencies (GET/MGET as OpSearch, SCAN as OpScan, PUT as
	// OpInsert, DEL as OpDelete) and admission budget occupancy.
	Metrics *obs.Metrics

	// Lifecycle configures request-lifecycle stage tracing: per-stage
	// latency histograms (recorded into Metrics), the sampled
	// slow-request log, and the optional Chrome trace export. The
	// zero value disables all three (lifecycle.go, DESIGN.md §12).
	Lifecycle LifecycleConfig

	// Repl, when non-nil, handles REPLICATE requests (the replication
	// subsystem's wire entry point — internal/repl wires its Node
	// here). Nil answers REPLICATE with StatusErr.
	Repl ReplHandler
}

// ReplHandler answers one decoded REPLICATE exchange. REPLICATE
// requests bypass admission (replication must make progress exactly
// when the data plane is saturated) and the op-latency metrics (the
// follower's poll cadence would pollute the client histograms); they
// still count in the STATS op table.
type ReplHandler interface {
	// HandleReplicate executes one replication request and returns the
	// full wire response (so fencing can answer StatusFenced with the
	// rival epoch).
	HandleReplicate(r *ReplReq) *Response
}

// Server serves a Store over TCP with the wire protocol of wire.go
// (normative spec: PROTOCOL.md).
type Server struct {
	st  *Store
	cfg ServerConfig

	ln   net.Listener
	adm  *admission
	lc   *lifecycle  // nil when lifecycle tracing is disabled
	pool *workerPool // nil when DataPlane is DataPlaneGoroutine

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Streaming-scan cursor bookkeeping: every connection's cursor set
	// registers here so the reaper can walk them (scansrv.go).
	curMu          sync.Mutex
	curSets        map[*connCursors]struct{}
	reaperStop     chan struct{}
	cursorsOpen    atomic.Int64
	cursorsOpened  atomic.Uint64
	cursorTimeouts atomic.Uint64

	wg      sync.WaitGroup
	started time.Time

	// Serving counters, exposed via STATS.
	ops      [numOps]atomic.Uint64 // indexed by Op
	rejected atomic.Uint64
	expired  atomic.Uint64
	badReqs  atomic.Uint64
	pipeline atomic.Uint64 // connections upgraded to protocol v2
}

// numOps sizes the per-op counter table (ops 1..OpScanClose).
const numOps = int(OpScanClose) + 1

// The data-plane models of ServerConfig.DataPlane.
const (
	// DataPlanePool executes pipelined requests on a shared bounded
	// worker pool (pool.go).
	DataPlanePool = "pool"

	// DataPlaneGoroutine spawns one goroutine per in-flight request —
	// the pre-pool model, kept for head-to-head benchmarks.
	DataPlaneGoroutine = "goroutine"
)

// ServerStats is the JSON payload of a STATS response.
type ServerStats struct {
	UptimeMS  int64                  `json:"uptime_ms"`       // ms since the server started
	Ops       map[string]uint64      `json:"ops"`             // completed requests per op name
	Rejected  uint64                 `json:"rejected"`        // admission rejections (all classes)
	Expired   uint64                 `json:"expired"`         // requests whose deadline passed before execution
	BadReqs   uint64                 `json:"bad_requests"`    // malformed frames answered StatusErr
	Conns     int                    `json:"conns"`           // currently open connections
	Pipelined uint64                 `json:"pipelined_conns"` // connections ever upgraded to protocol v2
	Window    int                    `json:"window"`          // per-connection pipeline depth
	DataPlane string                 `json:"data_plane"`      // execution model: "pool" or "goroutine"
	PoolSize  int                    `json:"pool_size"`       // pool workers (0 on the goroutine plane)
	Cursors   CursorStats            `json:"cursors"`         // streaming-scan cursor occupancy
	Budgets   map[string]BudgetStats `json:"budgets"`         // admission occupancy per class
	Store     StoreStats             `json:"store"`           // per-shard store counters

	// Stages and StageTotals carry the request-lifecycle attribution
	// when lifecycle tracing is enabled (empty maps otherwise, never
	// null — loadgen round-trips the payload). Stages is keyed by op
	// class then stage name.
	Stages map[string]map[string]StageStats `json:"server_stages"`

	// StageTotals holds each op class's end-to-end server-side latency
	// (request decoded through response written).
	StageTotals map[string]StageStats `json:"server_stage_totals"`
}

// StageStats summarizes one lifecycle histogram for the STATS payload.
type StageStats struct {
	Count uint64 `json:"count"`  // samples observed
	SumNS int64  `json:"sum_ns"` // accumulated nanoseconds across samples
	P50NS int64  `json:"p50_ns"` // median latency (bucket upper bound)
	P99NS int64  `json:"p99_ns"` // p99 latency (bucket upper bound)
}

// NewServer wraps a store; call Start to begin listening.
func NewServer(st *Store, cfg ServerConfig) *Server {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.Admission.ReadTokens <= 0 && cfg.MaxInflight > 0 {
		cfg.Admission.ReadTokens = cfg.MaxInflight
	}
	switch cfg.DataPlane {
	case "":
		cfg.DataPlane = DataPlanePool
	case DataPlanePool, DataPlaneGoroutine:
	default:
		panic(fmt.Sprintf("serve: unknown data plane %q", cfg.DataPlane))
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = max(16, 4*runtime.GOMAXPROCS(0))
	}
	if cfg.CursorTimeout == 0 {
		cfg.CursorTimeout = 30 * time.Second
	}
	cfg.Admission = cfg.Admission.withDefaults(st.Shards(), cfg.Window, cfg.RetryAfter)
	s := &Server{
		st:      st,
		cfg:     cfg,
		adm:     newAdmission(cfg.Admission, cfg.Metrics),
		lc:      newLifecycle(cfg.Lifecycle, cfg.Metrics),
		conns:   make(map[net.Conn]struct{}),
		curSets: make(map[*connCursors]struct{}),
	}
	return s
}

// Start binds the listener and launches the accept loop.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = time.Now()
	if s.cfg.DataPlane == DataPlanePool {
		s.pool = newWorkerPool(s.cfg.PoolSize, s.cfg.Metrics)
	}
	if s.cfg.CursorTimeout > 0 {
		s.reaperStop = make(chan struct{})
		s.wg.Add(1)
		go s.reapCursors()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// Shutdown drains gracefully: stop accepting, let in-flight requests
// finish, then close connections. If the drain exceeds timeout,
// connections are closed forcibly.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Expire every connection's pending read: idle request loops exit
	// immediately, while requests already executing are unaffected —
	// they finish, write their response, and exit on the next read.
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()
	if s.reaperStop != nil {
		close(s.reaperStop)
	}
	err := s.ln.Close()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		err = errors.Join(err, fmt.Errorf("serve: shutdown forced after %v", timeout))
	}
	if s.pool != nil {
		s.pool.close()
	}
	err = errors.Join(err, s.lc.closeTrace())
	return err
}

// serveConn runs the request loop of one connection. It starts in
// protocol v1 (one request, one response, in order); a HELLO as the
// first request negotiating version >= 2 hands the connection to
// servePipelined (PROTOCOL.md §3).
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	cs := s.registerCursors()
	defer s.releaseCursors(cs)
	var in, out []byte
	var connID uint64
	if s.lc != nil {
		connID = s.lc.nextConn()
	}
	first := true
	for {
		var readStart int64
		if s.lc != nil {
			readStart = obs.Nanotime()
		}
		frame, err := ReadFrame(c, in)
		if err != nil {
			return // EOF, peer reset, or shutdown read deadline
		}
		in = frame
		arrived := time.Now()
		var sp *obs.Span
		if s.lc != nil {
			sp = s.lc.span(connID)
			// Frame-read time includes client think time and is kept
			// out of the server-side total (stage.go).
			sp.Add(obs.StageRead, sp.StartNS()-readStart)
		}
		req, err := DecodeRequest(frame)
		if sp != nil {
			sp.Mark(obs.StageDecode)
		}
		var resp *Response
		switch {
		case err != nil:
			s.badReqs.Add(1)
			resp = &Response{Status: StatusErr, Err: err.Error()}
		case req.Op == OpHello:
			s.ops[OpHello].Add(1)
			if first && req.MaxVersion >= ProtoV2 {
				// Upgrade: ack version 2, then switch framing.
				s.lc.drop(sp)
				ack := &Response{Status: StatusOK, Version: ProtoV2, Window: uint32(s.cfg.Window)}
				payload, _ := AppendResponse(out[:0], ack)
				if err := WriteFrame(c, payload); err != nil {
					return
				}
				s.pipeline.Add(1)
				s.servePipelined(c, connID, cs)
				return
			}
			// A v1-only peer, or a HELLO after traffic already flowed:
			// stay on (or renegotiate down to) version 1.
			resp = &Response{Status: StatusOK, Version: ProtoV1, Window: 1}
		default:
			resp = s.handle(req, arrived, sp, cs)
		}
		first = false
		payload, err := AppendResponse(out[:0], resp)
		if err != nil { // response exceeded wire bounds; report instead
			payload, _ = AppendResponse(out[:0], &Response{Status: StatusErr, Err: err.Error()})
		}
		out = payload
		if err := WriteFrame(c, payload); err != nil {
			s.lc.drop(sp)
			return
		}
		if sp != nil {
			sp.Mark(obs.StageWrite)
			s.lc.finish(sp)
		}
	}
}

// completed is one finished request on its way to a connection's
// writer goroutine: the response, the v2 request ID it answers, and
// the request's lifecycle span.
type completed struct {
	id   uint32
	resp *Response
	sp   *obs.Span
}

// connWriter serializes one connection's response frames. Responses
// buffer through bw and flush only when no further completion is
// waiting, so consecutive responses coalesce into one write syscall
// under load (the flush cost lands on the request that triggered it).
// On a write error it drains out until closed so producers never
// block against a dead connection.
func (s *Server) connWriter(c net.Conn, out <-chan completed, writerDone chan<- struct{}) {
	defer close(writerDone)
	bw := bufio.NewWriter(c)
	var buf []byte
	for d := range out {
		if d.sp != nil {
			d.sp.Mark(obs.StageRespQueue)
		}
		payload, err := AppendResponseV2(buf[:0], d.id, d.resp)
		if err != nil { // response exceeded wire bounds; report instead
			payload, _ = AppendResponseV2(buf[:0], d.id, &Response{Status: StatusErr, Err: err.Error()})
		}
		buf = payload
		if err := WriteFrame(bw, payload); err != nil {
			s.lc.drop(d.sp)
			for d := range out {
				s.lc.drop(d.sp)
			}
			return
		}
		if len(out) == 0 {
			if err := bw.Flush(); err != nil {
				s.lc.drop(d.sp)
				for d := range out {
					s.lc.drop(d.sp)
				}
				return
			}
		}
		if d.sp != nil {
			d.sp.Mark(obs.StageWrite)
			s.lc.finish(d.sp)
		}
	}
	bw.Flush()
}

// servePipelined runs the protocol-v2 loop: read ahead up to Window
// frames, execute them concurrently, and write responses in completion
// order — a slow SCAN no longer blocks the GETs queued behind it. A
// dedicated writer goroutine serializes the response frames
// (connWriter); execution runs on the shared worker pool or, on the
// goroutine plane, one goroutine per in-flight request (DESIGN.md §15).
func (s *Server) servePipelined(c net.Conn, connID uint64, cs *connCursors) {
	out := make(chan completed, s.cfg.Window)
	writerDone := make(chan struct{})
	go s.connWriter(c, out, writerDone)

	// slots bounds this connection's read-ahead: at most Window
	// requests in flight at once, whichever plane executes them.
	slots := make(chan struct{}, s.cfg.Window)
	var in []byte
	for {
		var readStart int64
		if s.lc != nil {
			readStart = obs.Nanotime()
		}
		frame, err := ReadFrame(c, in)
		if err != nil {
			break // EOF, peer reset, or shutdown read deadline
		}
		in = frame
		arrived := time.Now()
		if len(frame) < 4 {
			break // no ID to answer with: connection-fatal (PROTOCOL.md §5)
		}
		id, req, err := DecodeRequestV2(frame)
		if err != nil {
			s.badReqs.Add(1)
			out <- completed{id, &Response{Status: StatusErr, Err: err.Error()}, nil}
			continue
		}
		if req.Op == OpHello { // renegotiation is not allowed mid-stream
			s.ops[OpHello].Add(1)
			out <- completed{id, &Response{Status: StatusOK, Version: ProtoV2, Window: uint32(s.cfg.Window)}, nil}
			continue
		}
		var sp *obs.Span
		if s.lc != nil {
			sp = s.lc.span(connID)
			sp.Req = id
			sp.Add(obs.StageRead, sp.StartNS()-readStart)
			sp.Mark(obs.StageDecode)
		}
		// Decode already copied the frame, so the read buffer is free
		// to reuse; the slot wait (and, on the pool plane, the queue
		// wait for a worker) is attributed to the admission stage by
		// handle's first Mark.
		slots <- struct{}{}
		if s.pool != nil {
			s.pool.submit(poolTask{s: s, id: id, req: req, arrived: arrived, sp: sp, cs: cs, out: out, slot: slots})
		} else {
			go func(id uint32, req *Request, arrived time.Time, sp *obs.Span) {
				out <- completed{id, s.handle(req, arrived, sp, cs), sp}
				<-slots
			}(id, req, arrived, sp)
		}
	}
	// Reclaim every slot: this blocks until all in-flight requests of
	// this connection have completed and released theirs, whichever
	// plane ran them — only then is out safe to close.
	for i := 0; i < s.cfg.Window; i++ {
		slots <- struct{}{}
	}
	close(out)
	<-writerDone
}

// handle admits and executes one decoded request. sp may be nil
// (lifecycle tracing off); rejected and expired requests leave the
// span's Op at OpNone so it is dropped unobserved. cs is the owning
// connection's streaming-scan cursor set.
func (s *Server) handle(req *Request, arrived time.Time, sp *obs.Span, cs *connCursors) *Response {
	// Admission: take the class's tokens or reject with its retry hint.
	release, retryAfter, ok := s.adm.admit(req)
	if sp != nil {
		sp.Mark(obs.StageAdmission)
	}
	if !ok {
		s.rejected.Add(1)
		return &Response{Status: StatusRetry, RetryAfterMS: uint32(retryAfter / time.Millisecond)}
	}
	defer release()
	// Deadline: don't burn work on an answer the client has abandoned.
	if req.DeadlineMS != 0 && time.Since(arrived) > time.Duration(req.DeadlineMS)*time.Millisecond {
		s.expired.Add(1)
		return &Response{Status: StatusDeadline}
	}
	s.ops[req.Op].Add(1)
	if s.cfg.Metrics != nil && req.Op != OpReplicate {
		defer s.cfg.Metrics.Time(metricOpOf(req.Op))()
	}
	if sp != nil && req.Op != OpStats && req.Op != OpReplicate {
		sp.Op = metricOpOf(req.Op)
	}
	return s.execute(req, sp, cs)
}

// metricOpOf maps wire ops onto the index-operation metrics. The
// streaming-scan ops record as OpScan: each SCANNEXT is one scan-class
// unit of work in the histograms.
func metricOpOf(op Op) core.OpKind {
	switch op {
	case OpScan, OpScanOpen, OpScanNext, OpScanClose:
		return core.OpScan
	case OpPut:
		return core.OpInsert
	case OpDel:
		return core.OpDelete
	default:
		return core.OpSearch
	}
}

// execute runs a decoded, admitted request against the store. Read
// ops mark StageExec themselves; write ops are stamped by the shard
// writers (queue_wait, wal_append, wal_fsync, apply) via the span
// handed into the store, so execute only advances the clock past the
// blocking call with Touch.
func (s *Server) execute(req *Request, sp *obs.Span, cs *connCursors) *Response {
	switch req.Op {
	case OpGet:
		tid, ok := s.st.Get(req.Keys[0])
		if sp != nil {
			sp.Mark(obs.StageExec)
		}
		if !ok {
			return &Response{Status: StatusNotFound}
		}
		return &Response{Status: StatusOK, Lookups: []Lookup{{TID: tid, Found: true}}}
	case OpMGet:
		out := make([]Lookup, len(req.Keys))
		s.st.MGet(req.Keys, out)
		if sp != nil {
			sp.Mark(obs.StageExec)
		}
		return &Response{Status: StatusOK, Lookups: out}
	case OpScan:
		pairs := s.st.Scan(req.Start, req.End, int(req.Limit))
		if pairs == nil {
			pairs = []core.Pair{}
		}
		if sp != nil {
			sp.Mark(obs.StageExec)
		}
		return &Response{Status: StatusOK, Pairs: pairs}
	case OpScanOpen, OpScanNext, OpScanClose:
		resp := s.executeScan(req, cs)
		if sp != nil {
			sp.Mark(obs.StageExec)
		}
		return resp
	case OpPut:
		var callStart, stamped0 int64
		if sp != nil {
			callStart, stamped0 = obs.Nanotime(), sp.StoreStagesNS()
		}
		err := s.st.putBatch(req.Pairs, sp)
		if sp != nil {
			// The shard writers stamped queue/WAL/apply via Add; fold
			// the unstamped residual of the blocking call (partition
			// setup, ack wakeup latency) into apply and advance the
			// clock past it.
			residual := obs.Nanotime() - callStart - (sp.StoreStagesNS() - stamped0)
			sp.Add(obs.StageApply, residual)
			sp.Touch()
		}
		if errResp := s.writeResult(err); errResp != nil {
			if sp != nil {
				sp.Op = core.OpNone // rejected/failed: drop unobserved
			}
			return errResp
		}
		return &Response{Status: StatusOK}
	case OpDel:
		var callStart, stamped0 int64
		if sp != nil {
			callStart, stamped0 = obs.Nanotime(), sp.StoreStagesNS()
		}
		var first error
		for _, k := range req.Keys {
			if err := s.st.delete(k, sp); err != nil && first == nil {
				first = err
			}
		}
		if sp != nil {
			residual := obs.Nanotime() - callStart - (sp.StoreStagesNS() - stamped0)
			sp.Add(obs.StageApply, residual)
			sp.Touch()
		}
		if errResp := s.writeResult(first); errResp != nil {
			if sp != nil {
				sp.Op = core.OpNone
			}
			return errResp
		}
		return &Response{Status: StatusOK}
	case OpStats:
		blob, err := json.Marshal(s.statsLocked())
		if err != nil {
			return &Response{Status: StatusErr, Err: err.Error()}
		}
		return &Response{Status: StatusOK, Stats: blob}
	case OpReplicate:
		if s.cfg.Repl == nil {
			return &Response{Status: StatusErr, Err: "serve: replication not configured"}
		}
		if req.Repl == nil {
			return &Response{Status: StatusErr, Err: "serve: REPLICATE without payload"}
		}
		return s.cfg.Repl.HandleReplicate(req.Repl)
	}
	return &Response{Status: StatusErr, Err: fmt.Sprintf("serve: unhandled op %s", req.Op)}
}

// writeResult maps store write errors onto wire statuses: overload
// becomes a retryable rejection with the write class's hint,
// everything else an error.
func (s *Server) writeResult(err error) *Response {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrOverloaded):
		s.rejected.Add(1)
		retry := s.cfg.Admission.RetryAfterWrite
		if retry <= 0 {
			retry = s.cfg.RetryAfter
		}
		return &Response{Status: StatusRetry, RetryAfterMS: uint32(retry / time.Millisecond)}
	default:
		return &Response{Status: StatusErr, Err: err.Error()}
	}
}

// Stats assembles the same payload a STATS request returns — the
// admin plane's /statsz endpoint and in-process monitors use it
// without a wire round trip.
func (s *Server) Stats() ServerStats { return s.statsLocked() }

// statsLocked assembles the STATS payload.
func (s *Server) statsLocked() ServerStats {
	s.mu.Lock()
	nconns := len(s.conns)
	s.mu.Unlock()
	ops := make(map[string]uint64, numOps)
	for op := OpGet; op <= OpScanClose; op++ {
		if n := s.ops[op].Load(); n > 0 {
			ops[op.String()] = n
		}
	}
	poolSize := 0
	if s.cfg.DataPlane == DataPlanePool {
		poolSize = s.cfg.PoolSize
	}
	return ServerStats{
		UptimeMS:    time.Since(s.started).Milliseconds(),
		Ops:         ops,
		Rejected:    s.rejected.Load(),
		Expired:     s.expired.Load(),
		BadReqs:     s.badReqs.Load(),
		Conns:       nconns,
		Pipelined:   s.pipeline.Load(),
		Window:      s.cfg.Window,
		DataPlane:   s.cfg.DataPlane,
		PoolSize:    poolSize,
		Cursors:     s.cursorStats(),
		Budgets:     s.adm.stats(),
		Store:       s.st.Stats(),
		Stages:      s.stageStats(),
		StageTotals: s.stageTotalStats(),
	}
}

// stageStatsOf condenses one lifecycle histogram snapshot.
func stageStatsOf(h obs.HistogramSnapshot) StageStats {
	return StageStats{
		Count: h.Count,
		SumNS: int64(h.SumNS),
		P50NS: int64(h.Quantile(0.50)),
		P99NS: int64(h.Quantile(0.99)),
	}
}

// stageStats collects the per-stage attribution tables for STATS.
// Always non-nil: the loadgen report round-trips the payload and the
// reproducibility guarantee forbids fields that vanish when empty.
func (s *Server) stageStats() map[string]map[string]StageStats {
	out := make(map[string]map[string]StageStats)
	if s.cfg.Metrics == nil {
		return out
	}
	for _, op := range []core.OpKind{core.OpSearch, core.OpInsert, core.OpDelete, core.OpScan} {
		var table map[string]StageStats
		for _, st := range obs.Stages() {
			snap := s.cfg.Metrics.StageSnapshot(op, st)
			if snap.Count == 0 {
				continue
			}
			if table == nil {
				table = make(map[string]StageStats)
			}
			table[st.String()] = stageStatsOf(snap)
		}
		if table != nil {
			out[op.String()] = table
		}
	}
	return out
}

// stageTotalStats collects each op class's end-to-end server-side
// latency histogram for STATS. Always non-nil.
func (s *Server) stageTotalStats() map[string]StageStats {
	out := make(map[string]StageStats)
	if s.cfg.Metrics == nil {
		return out
	}
	for _, op := range []core.OpKind{core.OpSearch, core.OpInsert, core.OpDelete, core.OpScan} {
		if snap := s.cfg.Metrics.StageTotalSnapshot(op); snap.Count > 0 {
			out[op.String()] = stageStatsOf(snap)
		}
	}
	return out
}
