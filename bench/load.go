package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/serve"
)

// callTimeout bounds one request. A write queued behind a checkpoint
// takes tens of milliseconds, so this only catches a lost reply.
const callTimeout = 20 * time.Second

// span is one timed interval of the benchmark's trace. Spans of one op
// share Op, an id unique within the phase; Parent is the index of the
// enclosing span in the same slice, -1 for a root.
type span struct {
	Name       string
	Start, End time.Time
	Conn, Op   int
	Parent     int
}

// sample is one correctly answered op: when it completed and how long
// it took.
type sample struct {
	at time.Time
	ns int64
}

// tally is what one caller (or a whole run) observed.
type tally struct {
	lat       [numClasses][]sample // correct ops completing in the window
	attempted int                  // ops completing in the window
	failed    int                  // of those: RETRY, deadline, transport
	wrongN    int                  // wrong answers, whenever they arrived
	wrong     []string             // the first few of them
	spans     []span
}

func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrongN += o.wrongN
	if len(t.wrong) < 10 {
		t.wrong = append(t.wrong, o.wrong...)
	}
	off := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off // parents index the merged slice
		}
		t.spans = append(t.spans, s)
	}
}

// ok is the number of correctly answered ops in the window.
func (t *tally) ok() int {
	n := 0
	for _, lat := range t.lat {
		n += len(lat)
	}
	return n
}

// caller runs ops over one connection; trace records a span per wire
// request.
type caller struct {
	c     *serve.Client
	m     *model
	conn  int
	trace bool
	t     *tally
	ids   *atomic.Int64 // op ids, shared by the phase's callers
	op    int           // the current op's id
}

// errWrong marks a wrong answer, as opposed to a failed request.
type errWrong struct{ error }

// run issues one op and checks its answer. A RETRY, deadline or
// transport error returns as a plain error; a wrong answer as errWrong.
func (cl *caller) run(o op) error {
	cl.op = int(cl.ids.Add(1))
	root := -1
	if cl.trace {
		root = cl.begin(kindNames[o.kind], -1)
		defer cl.end(root)
	}
	switch o.kind {
	case kGet, kMGet:
		before := make([]entry, len(o.keys))
		for i, k := range o.keys {
			before[i] = cl.m.get(k)
		}
		req := &serve.Request{Op: serve.OpMGet, Keys: o.keys}
		if o.kind == kGet {
			req.Op = serve.OpGet
		}
		rs, err := cl.call(req, root)
		if err != nil {
			return err
		}
		if o.kind == kGet && rs.Status == serve.StatusNotFound {
			rs.Lookups = []serve.Lookup{{}}
		}
		if err := checkLookups(o.keys, before, cl.m, rs.Lookups); err != nil {
			return errWrong{err}
		}
	case kScan:
		rc := newRowChecker(cl.m, o.start, o.end)
		rs, err := cl.call(&serve.Request{Op: serve.OpScan, Start: o.start, End: o.end, Limit: uint32(o.limit)}, root)
		if err != nil {
			return err
		}
		if len(rs.Pairs) > o.limit {
			return errWrong{fmt.Errorf("scan returned %d rows, limit %d", len(rs.Pairs), o.limit)}
		}
		if err := rc.chunk(rs.Pairs); err != nil {
			return errWrong{err}
		}
		if err := rc.done(o.limit); err != nil {
			return errWrong{err}
		}
	case kStream:
		return cl.stream(o, root)
	case kPut, kDel:
		k := o.keys[0]
		cl.m.beginWrite(k)
		req := &serve.Request{Op: serve.OpDel, Keys: o.keys}
		if o.kind == kPut {
			req = &serve.Request{Op: serve.OpPut, Pairs: []core.Pair{{Key: k, TID: o.tid}}}
		}
		_, err := cl.call(req, root)
		switch {
		case err == nil:
			cl.m.endWrite(k, writeApplied, o.kind == kPut, o.tid)
		case isRetry(err):
			cl.m.endWrite(k, writeRejected, false, 0)
		default:
			cl.m.endWrite(k, writeUnknown, false, 0)
		}
		return err
	}
	return nil
}

// stream runs one SCANOPEN → SCANNEXT* → SCANCLOSE sequence. A RETRY on
// any chunk fails the whole stream; it is not retried inside the
// timing.
func (cl *caller) stream(o op, root int) error {
	rc := newRowChecker(cl.m, o.start, o.end)
	rs, err := cl.call(&serve.Request{Op: serve.OpScanOpen, Start: o.start, End: o.end}, root)
	if err != nil {
		return err
	}
	cur := rs.Cursor
	for {
		rs, err := cl.call(&serve.Request{Op: serve.OpScanNext, Cursor: cur, Max: uint32(o.limit)}, root)
		if err != nil {
			cl.call(&serve.Request{Op: serve.OpScanClose, Cursor: cur}, root)
			return err
		}
		if !rs.ScanChunk {
			return errWrong{fmt.Errorf("SCANNEXT answered status %d without a chunk", rs.Status)}
		}
		if len(rs.Pairs) > o.limit {
			return errWrong{fmt.Errorf("chunk of %d rows, max %d", len(rs.Pairs), o.limit)}
		}
		if err := rc.chunk(rs.Pairs); err != nil {
			cl.call(&serve.Request{Op: serve.OpScanClose, Cursor: cur}, root)
			return errWrong{err}
		}
		if rs.ScanDone {
			break // the server closed the cursor
		}
	}
	if err := rc.done(0); err != nil {
		return errWrong{err}
	}
	return nil
}

// call sends one request and maps non-OK statuses to errors.
func (cl *caller) call(req *serve.Request, parent int) (*serve.Response, error) {
	s := -1
	if cl.trace {
		s = cl.begin(req.Op.String(), parent)
		defer cl.end(s)
	}
	call := cl.c.Go(req, nil)
	timer := time.NewTimer(callTimeout)
	defer timer.Stop()
	select {
	case <-call.Done:
	case <-timer.C:
		return nil, &serve.DeadlineError{}
	}
	if call.Err != nil {
		return nil, call.Err
	}
	rs := call.Resp
	switch rs.Status {
	case serve.StatusOK:
	case serve.StatusNotFound:
		if req.Op != serve.OpGet {
			return nil, fmt.Errorf("%s: not found", req.Op)
		}
	case serve.StatusRetry:
		return nil, &serve.RetryError{After: time.Duration(rs.RetryAfterMS) * time.Millisecond}
	case serve.StatusDeadline:
		return nil, &serve.DeadlineError{}
	default:
		return nil, fmt.Errorf("%s: status %d: %s", req.Op, rs.Status, rs.Err)
	}
	return rs, nil
}

// quietGC turns the generator's proportional GC off, collecting only
// near a fixed heap limit, and returns the function restoring the
// defaults. A served phase allocates a few hundred MB, so this trades
// thousands of short collections for a handful.
func quietGC() (restore func()) {
	debug.SetMemoryLimit(quietHeap)
	prev := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(prev)
		debug.SetMemoryLimit(math.MaxInt64)
	}
}

const quietHeap = 256 << 20

func isRetry(err error) bool {
	var r *serve.RetryError
	return errors.As(err, &r)
}

func (cl *caller) begin(name string, parent int) int {
	cl.t.spans = append(cl.t.spans, span{Name: name, Start: time.Now(), Conn: cl.conn, Op: cl.op, Parent: parent})
	return len(cl.t.spans) - 1
}

// maxSpans bounds the spans a traced served phase keeps in memory
// (and writes out); callers stop tracing once their share is full.
const maxSpans = 200_000

func (cl *caller) end(i int) { cl.t.spans[i].End = time.Now() }

// add files one op's outcome; t0 and t1 are its start and end. A wrong
// answer fails the run whenever it arrives, warm-up included; only ops
// completing inside the measured window count as attempted, failed or
// timed.
func (t *tally) add(class int, t0, t1 time.Time, err error, inWindow bool) {
	var w errWrong
	wrong := errors.As(err, &w)
	if wrong {
		t.wrongN++
		if len(t.wrong) < 10 {
			t.wrong = append(t.wrong, w.Error())
		}
	}
	if !inWindow {
		return
	}
	t.attempted++
	switch {
	case err == nil:
		t.lat[class] = append(t.lat[class], sample{at: t1, ns: t1.Sub(t0).Nanoseconds()})
	case !wrong:
		t.failed++
	}
}

// drive runs the workload's closed loop: Conns connections, each with
// Window callers that keep one request outstanding and wait for its
// reply. Ops completing in the first warm of the run are checked but
// not timed; the next measure is the measured window. Caller s draws
// its ops from generator stream+s of the seed. It returns the tally.
// The generator's GC is held off while it runs, so its pauses do not
// land in the server's latencies.
func drive(addr string, w *workload, m *model, seed, stream uint64, warm, measure time.Duration, trace bool) (*tally, error) {
	clients := make([]*serve.Client, w.Conns)
	for i := range clients {
		c, err := serve.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		defer c.Close()
		if c.Version() < serve.ProtoV2 {
			return nil, fmt.Errorf("server did not negotiate pipelining")
		}
		clients[i] = c
	}
	defer quietGC()()
	start := time.Now()
	from, to := start.Add(warm), start.Add(warm+measure)
	tallies := make([]*tally, w.slots())
	var ids atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < w.slots(); s++ {
		tallies[s] = &tally{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g := newGen(w, w.Keys, seed, stream+uint64(s), s, w.Mix)
			cl := &caller{c: clients[s%w.Conns], m: m, conn: s % w.Conns, trace: trace, t: tallies[s], ids: &ids}
			for t0 := time.Now(); t0.Before(to); t0 = time.Now() {
				o := g.next()
				cl.trace = trace && !t0.Before(from) && len(cl.t.spans) < maxSpans/w.slots()
				err := cl.run(o)
				t1 := time.Now()
				tallies[s].add(classOf(o.kind), t0, t1, err, !t1.Before(from) && t1.Before(to))
			}
		}(s)
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total, nil
}
