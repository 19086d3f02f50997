package main

import (
	"fmt"
	"math/rand/v2"

	"pbtree/internal/core"
)

// Op kinds the generator issues. A stream is one whole
// SCANOPEN → SCANNEXT* → SCANCLOSE sequence.
const (
	kGet = iota
	kMGet
	kScan
	kStream
	kPut
	kDel
	numKinds
)

var kindNames = [numKinds]string{"get", "mget", "scan", "stream", "put", "del"}

// Latency classes: PUT and DEL share the write class.
const (
	cGet = iota
	cMGet
	cWrite
	cScan
	cStream
	numClasses
)

var classNames = [numClasses]string{"get", "mget", "write", "scan", "stream"}

func classOf(kind int) int {
	switch kind {
	case kGet:
		return cGet
	case kMGet:
		return cMGet
	case kScan:
		return cScan
	case kStream:
		return cStream
	}
	return cWrite
}

// workload is one served traffic mix and the server that answers it.
type workload struct {
	Name    string
	Why     string
	Keys    int     // preloaded keys: 8, 16, ..., 8*Keys
	Durable bool    // fresh data dir, -fsync interval
	Conns   int     // client connections (at most nproc)
	Window  int     // requests each connection keeps outstanding
	Zipf    float64 // 0 = uniform over the key space
	Mix     [numKinds]int
	// Per-op sizes.
	MGetKeys    int
	ScanLimit   int
	StreamRows  int
	StreamChunk int
}

func (w *workload) slots() int { return w.Conns * w.Window }

func (w *workload) writes() bool { return w.Mix[kPut]+w.Mix[kDel] > 0 }

// hasClass reports whether the mix itself issues ops of class c.
func (w *workload) hasClass(c int) bool {
	for k := 0; k < numKinds; k++ {
		if w.Mix[k] > 0 && classOf(k) == c {
			return true
		}
	}
	return false
}

// The served workloads. Every PUT targets an absent key half the time
// (the tree grows through splits) and overwrites a preloaded key the
// other half. A write-cursor workload (ingest's writes while 10,000-row
// streams pin snapshots) was left out: its throughput and latency
// spread too widely between runs to bound; the clone cliff it exercises
// is timed in-process by the traced run (backend.apply_pinned_ms,
// core.clone_ms).
var workloads = []workload{
	{
		Name: "point-seq",
		Why:  "2 conns x window 1, Zipf point reads on 1M keys (L3-resident): per-request fixed cost (round trip, decode, pool hand-off, batcher linger) dominates, tree search barely shows",
		Keys: 1_000_000, Conns: 2, Window: 1, Zipf: 1.1,
		Mix: [numKinds]int{kGet: 90, kMGet: 5, kPut: 5},
	},
	{
		Name: "read-pipe",
		Why:  "2 x 16 pipelined uniform reads, one-shot scans and streams over 16M keys (~6x L3): node cache misses, the paper's subject, are the main server cost",
		Keys: 16_000_000, Conns: 2, Window: 16,
		Mix:        [numKinds]int{kGet: 70, kMGet: 15, kScan: 10, kStream: 5},
		StreamRows: 4096,
	},
	{
		Name: "ingest",
		Why:  "durable 1M keys, 2 x 8, uniform writes and reads, no cursors: ping-pong double apply, WAL group commit and checkpoints; the storage layers' workload",
		Keys: 1_000_000, Durable: true, Conns: 2, Window: 8,
		Mix: [numKinds]int{kPut: 50, kDel: 10, kGet: 40},
	},
}

// Op sizes the mixes share.
const (
	defMGetKeys    = 16
	defScanLimit   = 100
	defStreamChunk = 256
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			if w.MGetKeys == 0 {
				w.MGetKeys = defMGetKeys
			}
			if w.ScanLimit == 0 {
				w.ScanLimit = defScanLimit
			}
			if w.StreamChunk == 0 {
				w.StreamChunk = defStreamChunk
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// TIDs written by the benchmark carry their key in the low 28 bits and
// a nonzero generation in the high 4, so every row read back can be
// checked against its key, and an overwrite is distinguishable from
// the value it replaced. Preloaded pairs carry TID = key/8.
const (
	tidKeyBits = 28
	tidKeyMask = 1<<tidKeyBits - 1
	maxKeys    = (1<<tidKeyBits)/8 - 2 // room for between-key inserts past 8*Keys
)

func encodeTID(k core.Key, gen uint32) core.TID {
	return core.TID(uint32(k) | (1+gen%15)<<tidKeyBits)
}

// validTID reports whether tid is a value the benchmark or the preload
// could have stored under k.
func validTID(k core.Key, tid core.TID) bool {
	if k%8 == 0 && tid == core.TID(k/8) {
		return true
	}
	return uint32(tid)>>tidKeyBits != 0 && uint32(tid)&tidKeyMask == uint32(k)
}

// keyAt is the preloaded key at position i (0-based); r in [1, 7]
// selects the absent key r above it.
func keyAt(i, r int) core.Key { return core.Key(8*(i+1) + r) }

// owner is the slot that owns writes to k. Slots are partitioned by
// key position, so a connection (its slots' union) owns its partition
// and no two callers ever write one key.
func owner(k core.Key, nslots int) int { return (int(k/8) - 1) % nslots }

// op is one generated request (or stream).
type op struct {
	kind       int
	keys       []core.Key // get: 1, mget: MGetKeys, put/del: 1
	tid        core.TID   // put
	start, end core.Key   // scan, stream
	limit      int        // scan: row limit; stream: chunk rows
}

// gen produces one caller's deterministic op stream from the seed.
type gen struct {
	w      *workload
	n      int // preloaded key count
	slot   int // the caller's slot; it writes only keys it owns
	nslots int
	rng    *rand.Rand
	zipf   *rand.Zipf
	cum    [numKinds]int
	total  int
	wgen   uint32
}

// mulPerm scatters Zipf ranks over the key space so hot keys are not
// clustered; it is prime, hence coprime with any key count below it.
const mulPerm = 2654435761

func newGen(w *workload, n int, seed uint64, stream uint64, slot int, mix [numKinds]int) *gen {
	g := &gen{w: w, n: n, slot: slot, nslots: w.slots(), rng: rand.New(rand.NewPCG(seed, stream))}
	if w.Zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, w.Zipf, 1, uint64(n-1))
	}
	for k := 0; k < numKinds; k++ {
		g.total += mix[k]
		g.cum[k] = g.total
	}
	return g
}

// pos draws a key position from the workload's distribution.
func (g *gen) pos() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64() * mulPerm % uint64(g.n))
	}
	return g.rng.IntN(g.n)
}

// readKey draws a key to look up: a preloaded position, or on writing
// mixes sometimes the between-key slot a PUT may have filled.
func (g *gen) readKey() core.Key {
	r := 0
	if g.w.writes() && g.rng.IntN(4) == 0 {
		r = 1 + g.rng.IntN(7)
	}
	return keyAt(g.pos(), r)
}

// ownKey draws a key this caller owns: a preloaded key or, half the
// time, an absent one between two preloaded keys.
func (g *gen) ownKey() core.Key {
	p := g.pos()
	p += g.slot - p%g.nslots
	if p >= g.n {
		p -= g.nslots
	}
	r := 0
	if g.rng.IntN(2) == 0 {
		r = 1 + g.rng.IntN(7)
	}
	return keyAt(p, r)
}

// rangeStart draws the first key of a scan covering about rows keys.
func (g *gen) rangeStart(rows int) core.Key {
	return keyAt(g.rng.IntN(max(1, g.n-rows)), 0)
}

func (g *gen) next() op {
	x := g.rng.IntN(g.total)
	kind := 0
	for x >= g.cum[kind] {
		kind++
	}
	o := op{kind: kind}
	switch kind {
	case kGet:
		o.keys = []core.Key{g.readKey()}
	case kMGet:
		o.keys = make([]core.Key, g.w.MGetKeys)
		for i := range o.keys {
			o.keys[i] = g.readKey()
		}
	case kScan:
		o.start = g.rangeStart(2 * g.w.ScanLimit)
		o.end = o.start + core.Key(8*2*g.w.ScanLimit)
		o.limit = g.w.ScanLimit
	case kStream:
		o.start = g.rangeStart(g.w.StreamRows)
		o.end = o.start + core.Key(8*g.w.StreamRows) - 1
		o.limit = g.w.StreamChunk
	case kPut:
		o.keys = []core.Key{g.ownKey()}
		g.wgen++
		o.tid = encodeTID(o.keys[0], g.wgen)
	case kDel:
		o.keys = []core.Key{g.ownKey()}
	}
	return o
}
