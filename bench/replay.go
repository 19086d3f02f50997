package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"pbtree/internal/backend"
	"pbtree/internal/core"
	"pbtree/internal/memsys"
	"pbtree/internal/serve"
	wl "pbtree/internal/workload"
)

// tree is the per-shard tree pbtree-server builds from its flag
// defaults on the memory model mem. Real prefetch instructions need a
// native model; the simulated hierarchy counts its own.
func (d serverDefaults) tree(mem memsys.Model) core.Config {
	hw := d.HWPrefetch
	if _, native := mem.(*memsys.Native); mem != nil && !native {
		hw = false
	}
	return core.Config{
		Width:            d.Width,
		Prefetch:         d.Width > 1 || hw,
		HardwarePrefetch: hw,
		BranchlessSearch: d.Branchless,
		GappedLeaves:     d.Gapped,
		Mem:              mem,
	}
}

// storeFill is the fill factor the store bulkloads and clones at:
// StoreConfig.Fill's default, which no server flag sets.
const storeFill = 0.8

// replayOps caps the replayed op stream: its spans stay in memory.
const replayOps = 20_000

// treeScanRows is the length of the engine- and tree-level scans.
const treeScanRows = 1024

// simKeys caps the tree simulated on the cache hierarchy: the
// simulator costs microseconds per access.
const simKeys = 1 << 20

// recorder collects the replay's spans and per-metric accumulators.
type recorder struct {
	spans []span
	op    int
}

func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Start: time.Now(), Op: r.op, Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) time.Duration {
	r.spans[i].End = time.Now()
	return r.spans[i].End.Sub(r.spans[i].Start)
}

// acc accumulates a mean.
type acc struct {
	sum float64
	n   float64
}

func (a *acc) add(v, n float64) { a.sum += v; a.n += n }
func (a *acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / a.n
}

// replayResult is the replay phase's output.
type replayResult struct {
	metrics map[string]float64
	spans   []span
	t       *tally
	simKeys int
	put     latency // blocking Store.Put calls
}

// replay runs the seed's op stream in-process, timing each public call
// of every layer under the served one: the wire codec, the store, the
// pbtree engine, the tree, and the simulated memory hierarchy.
func replay(w *workload, def serverDefaults, seed uint64, tmp string, budget time.Duration) (*replayResult, error) {
	res := &replayResult{metrics: map[string]float64{}, t: &tally{}}
	rec := &recorder{}
	mt := res.metrics
	pairs := wl.SortedPairs(w.Keys)

	// Store layer, through the wire codec, on the workload's config.
	cfg := serve.StoreConfig{Tree: def.tree(nil)}
	if w.Durable {
		dir, err := os.MkdirTemp(tmp, "replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Durable = &serve.DurableConfig{Dir: dir, Fsync: serve.FsyncEvery, FsyncInterval: def.FsyncInterval, CheckpointEvery: def.CheckpointEvery}
	}
	st, err := serve.Open(cfg, pairs)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	if err := st.WaitReady(); err != nil {
		st.Close()
		return nil, err
	}
	shardPairs := make([]core.Pair, 0, len(pairs)/st.Shards()+1)
	for _, p := range pairs {
		if st.ShardOf(p.Key) == 0 {
			shardPairs = append(shardPairs, p)
		}
	}
	m := newModel(w.Keys, w.slots())
	gens := make([]*gen, w.slots())
	for s := range gens {
		gens[s] = newGen(w, w.Keys, seed, uint64(s), s, w.Mix)
	}
	var enc, dec, bytes, get, mget, scanRow, curRow acc
	var puts []sample // blocking PUTs
	do := func(o op) {
		rec.op++
		root := rec.begin("op."+kindNames[o.kind], -1)
		t0 := time.Now()
		b, err := replayOp(st, m, o, rec, root, &enc, &dec, &get, &mget, &scanRow, &curRow)
		t1 := time.Now()
		rec.end(root)
		if o.kind == kPut {
			puts = append(puts, sample{at: t1, ns: t1.Sub(t0).Nanoseconds()})
		}
		bytes.add(float64(b), 1)
		res.t.add(classOf(o.kind), t0, t1, err, true)
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < replayOps && time.Now().Before(deadline); i++ {
		do(gens[i%len(gens)].next())
	}
	st.Close()
	st = nil
	pairs = nil
	release()

	mt["wire.encode_ns"] = enc.mean()
	mt["wire.decode_ns"] = dec.mean()
	mt["wire.bytes_per_op"] = bytes.mean()
	mt["store.get_ns"] = get.mean()
	mt["store.mget_ns_per_key"] = mget.mean()
	mt["store.scan_ns_per_row"] = scanRow.mean()
	mt["store.cursor_ns_per_row"] = curRow.mean()
	pl := summarize(puts)
	res.put = pl
	var sum int64
	for _, d := range puts {
		sum += d.ns
	}
	if len(puts) > 0 {
		mt["store.put_us"] = float64(sum) / float64(len(puts)) / 1e3
	}
	mt["store.put_p99_us"] = float64(pl.P99) / 1e3

	if err := replayBackend(w, def, seed, shardPairs, rec, mt); err != nil {
		return nil, err
	}
	release()
	if err := replayCore(w, def, seed, shardPairs, rec, mt); err != nil {
		return nil, err
	}
	release()
	res.simKeys = min(len(shardPairs), simKeys)
	if err := replaySim(w, def, seed, shardPairs[:res.simKeys], rec, mt); err != nil {
		return nil, err
	}
	res.spans = rec.spans
	return res, nil
}

// release returns the previous phase's trees to the OS, so the phases'
// memory does not stack up.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// replayOp runs one op through request encode/decode, the store call
// and response encode/decode, checking the answer against the model.
// It returns the frame bytes moved.
func replayOp(st *serve.Store, m *model, o op, rec *recorder, root int, enc, dec, get, mget, scanRow, curRow *acc) (int, error) {
	req := &serve.Request{Op: serve.OpGet, Keys: o.keys}
	switch o.kind {
	case kMGet:
		req.Op = serve.OpMGet
	case kScan:
		req = &serve.Request{Op: serve.OpScan, Start: o.start, End: o.end, Limit: uint32(o.limit)}
	case kStream:
		req = &serve.Request{Op: serve.OpScanOpen, Start: o.start, End: o.end}
	case kPut:
		req = &serve.Request{Op: serve.OpPut, Pairs: []core.Pair{{Key: o.keys[0], TID: o.tid}}}
	case kDel:
		req = &serve.Request{Op: serve.OpDel, Keys: o.keys}
	}
	s := rec.begin("wire.encode", root)
	frame, err := serve.AppendRequestV2(nil, uint32(rec.op), req)
	encNS := rec.end(s)
	if err != nil {
		return 0, err
	}
	s = rec.begin("wire.decode", root)
	_, req, err = serve.DecodeRequestV2(frame)
	decNS := rec.end(s)
	if err != nil {
		return 0, err
	}
	bytes := len(frame)

	rs := &serve.Response{Status: serve.StatusOK}
	var rc *rowChecker
	var werr error
	switch o.kind {
	case kGet, kMGet:
		before := make([]entry, len(o.keys))
		for i, k := range o.keys {
			before[i] = m.get(k)
		}
		rs.Lookups = make([]serve.Lookup, len(req.Keys))
		if o.kind == kGet {
			s = rec.begin("store.get", root)
			tid, found := st.Get(req.Keys[0])
			get.add(float64(rec.end(s)), 1)
			rs.Lookups[0] = serve.Lookup{TID: tid, Found: found}
		} else {
			s = rec.begin("store.mget", root)
			st.MGet(req.Keys, rs.Lookups)
			mget.add(float64(rec.end(s)), float64(len(req.Keys)))
		}
		werr = checkLookups(o.keys, before, m, rs.Lookups)
	case kScan:
		rc = newRowChecker(m, o.start, o.end)
		s = rec.begin("store.scan", root)
		rs.Pairs = st.Scan(req.Start, req.End, int(req.Limit))
		scanRow.add(float64(rec.end(s)), float64(len(rs.Pairs)))
		if werr = rc.chunk(rs.Pairs); werr == nil {
			werr = rc.done(o.limit)
		}
	case kStream:
		rc = newRowChecker(m, o.start, o.end)
		s = rec.begin("store.cursor", root)
		cur, err := st.OpenCursor(req.Start, req.End)
		if err != nil {
			rec.end(s)
			return bytes, err
		}
		n := 0
		for {
			rows, done := cur.Next(o.limit)
			n += len(rows)
			if werr == nil {
				werr = rc.chunk(rows)
			}
			if done {
				break
			}
		}
		cur.Close()
		curRow.add(float64(rec.end(s)), float64(n))
		if werr == nil {
			werr = rc.done(0)
		}
	case kPut, kDel:
		k := o.keys[0]
		m.beginWrite(k)
		s = rec.begin("store."+kindNames[o.kind], root)
		if o.kind == kPut {
			err = st.Put(k, o.tid)
		} else {
			err = st.Delete(k)
		}
		rec.end(s)
		if err != nil {
			m.endWrite(k, writeUnknown, false, 0)
			return bytes, err
		}
		m.endWrite(k, writeApplied, o.kind == kPut, o.tid)
	}
	s = rec.begin("wire.encode", root)
	out, err := serve.AppendResponseV2(nil, uint32(rec.op), rs)
	encNS += rec.end(s)
	if err != nil {
		return bytes, err
	}
	s = rec.begin("wire.decode", root)
	_, _, err = serve.DecodeResponseV2(out)
	decNS += rec.end(s)
	enc.add(float64(encNS), 1)
	dec.add(float64(decNS), 1)
	if err != nil {
		return bytes, err
	}
	if werr != nil {
		return bytes + len(out), errWrong{werr}
	}
	return bytes + len(out), nil
}

// timed runs f reps times inside one rooted span and returns the mean
// duration of one call in nanoseconds. Spans wrap batches of calls,
// since a clock read costs as much as one tree search.
func timed(rec *recorder, name string, reps int, f func(i int)) float64 {
	rec.op++
	s := rec.begin(name, -1)
	for i := 0; i < reps; i++ {
		f(i)
	}
	return float64(rec.end(s).Nanoseconds()) / float64(reps)
}

// writesFor draws n single-key writes like the workload's PUTs.
func writesFor(w *workload, seed uint64, n int) []backend.Write {
	g := newGen(w, w.Keys, seed, 2<<32, 0, [numKinds]int{kPut: 1})
	ws := make([]backend.Write, n)
	for i := range ws {
		o := g.next()
		ws[i] = backend.Write{Puts: []core.Pair{{Key: o.keys[0], TID: o.tid}}}
	}
	return ws
}

// replayBackend times the pbtree engine's ApplyBatch, with and without
// a pinned snapshot, and snapshot acquire/release.
func replayBackend(w *workload, def serverDefaults, seed uint64, shardPairs []core.Pair, rec *recorder, mt map[string]float64) error {
	b := backend.NewPBTree(def.tree(memsys.DefaultNative()), storeFill, nil, "")
	if err := b.Bootstrap(shardPairs); err != nil {
		return err
	}
	if err := b.Seal(1); err != nil {
		return err
	}
	const batch, rounds, pinned = 16, 256, 5
	ws := writesFor(w, seed, batch*(rounds+pinned))
	version := uint64(1)
	apply := func(ws []backend.Write) error {
		version++
		acked := false
		err := b.ApplyBatch(ws, version, version, func(error) { acked = true })
		if err == nil && !acked {
			err = fmt.Errorf("ApplyBatch returned without acking")
		}
		return err
	}
	var applyErr error
	per := timed(rec, "backend.apply", rounds, func(i int) {
		if err := apply(ws[i*batch : (i+1)*batch]); err != nil {
			applyErr = err
		}
	})
	mt["backend.apply_ns_per_write"] = per / batch
	var pinnedMS []float64
	for i := 0; i < pinned; i++ {
		snap := b.Snapshot()
		lo := (rounds + i) * batch
		d := timed(rec, "backend.apply_pinned", 1, func(int) {
			if err := apply(ws[lo : lo+batch]); err != nil {
				applyErr = err
			}
		})
		snap.Release()
		pinnedMS = append(pinnedMS, d/1e6)
	}
	if applyErr != nil {
		return fmt.Errorf("backend apply: %w", applyErr)
	}
	mt["backend.apply_pinned_ms"] = median(pinnedMS)
	mt["backend.snapshot_ns"] = timed(rec, "backend.snapshot", 1<<20, func(int) { b.Snapshot().Release() })
	return b.Close()
}

// searchKeys draws n keys of one shard's tree from the workload's read
// distribution.
func searchKeys(w *workload, seed uint64, shardPairs []core.Pair, n int) []core.Key {
	g := newGen(w, len(shardPairs), seed, 3<<32, 0, [numKinds]int{kGet: 1})
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = shardPairs[g.pos()].Key
	}
	return keys
}

// scanStarts draws n scan start positions leaving rows keys after each.
func scanStarts(seed uint64, nkeys, rows, n int) []int {
	g := newGen(&workload{Conns: 1, Window: 1}, nkeys, seed, 4<<32, 0, [numKinds]int{kGet: 1})
	out := make([]int, n)
	for i := range out {
		out[i] = g.rng.IntN(max(1, nkeys-rows))
	}
	return out
}

// replayCore times the tree's public calls on one shard's keys over the
// zero-cost native model, then counts prefetches on a counted one.
func replayCore(w *workload, def serverDefaults, seed uint64, shardPairs []core.Pair, rec *recorder, mt map[string]float64) error {
	t, err := core.New(def.tree(memsys.DefaultNative()))
	if err != nil {
		return err
	}
	if err := t.Bulkload(shardPairs, storeFill); err != nil {
		return err
	}
	const searches, batches, scans, updates = 1 << 18, 1 << 14, 64, 1 << 16
	keys := searchKeys(w, seed, shardPairs, searches)
	var miss int
	mt["core.search_ns"] = timed(rec, "core.search", searches, func(i int) {
		if _, ok := t.Search(keys[i]); !ok {
			miss++
		}
	})
	tids := make([]core.TID, 16)
	found := make([]bool, 16)
	mt["core.search_batch_ns_per_key"] = timed(rec, "core.search_batch", batches, func(i int) {
		t.SearchBatch(keys[i*16%searches:i*16%searches+16], tids, found)
		for _, f := range found {
			if !f {
				miss++
			}
		}
	}) / 16
	if miss > 0 {
		return fmt.Errorf("core: %d searches missed a loaded key", miss)
	}
	rows := min(treeScanRows, len(shardPairs))
	starts := scanStarts(seed, len(shardPairs), rows, scans)
	buf := make([]core.Pair, 256)
	scanned := 0
	scanNS := timed(rec, "core.scan", scans, func(i int) {
		sc := t.NewScan(shardPairs[starts[i]].Key, shardPairs[starts[i]+rows-1].Key)
		for n := sc.NextPairs(buf); n > 0; n = sc.NextPairs(buf) {
			scanned += n
		}
	})
	if scanned != scans*rows {
		return fmt.Errorf("core: scans returned %d rows, want %d", scanned, scans*rows)
	}
	mt["core.scan_ns_per_row"] = scanNS * scans / float64(scanned)

	var clones []float64
	var clone *core.Tree
	for i := 0; i < 3; i++ {
		clone = nil
		release()
		d := timed(rec, "core.clone", 1, func(int) { clone, err = t.CloneFrozen(storeFill) })
		if err != nil {
			return err
		}
		clones = append(clones, d/1e6)
	}
	mt["core.clone_ms"] = median(clones)
	ins := make([]core.Key, 0, updates)
	for _, wr := range writesFor(w, seed, 2*updates) {
		if k := wr.Puts[0].Key; k%8 != 0 && len(ins) < updates {
			ins = append(ins, k)
		}
	}
	slices.Sort(ins)
	ins = slices.Compact(ins)
	slices.Reverse(ins) // descending: no accidental sequential-append fast path
	bad := 0
	mt["core.insert_ns"] = timed(rec, "core.insert", len(ins), func(i int) {
		if !clone.Insert(ins[i], encodeTID(ins[i], 0)) {
			bad++
		}
	})
	mt["core.delete_ns"] = timed(rec, "core.delete", len(ins), func(i int) {
		if !clone.Delete(ins[i]) {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("core: %d inserts or deletes did not change the tree", bad)
	}
	t, clone = nil, nil
	release()

	counter := memsys.NewNativeCounted(memsys.DefaultConfig())
	ct, err := core.New(def.tree(counter))
	if err != nil {
		return err
	}
	if err := ct.Bulkload(shardPairs, storeFill); err != nil {
		return err
	}
	before := counter.NativeStats().Prefetches
	for _, k := range keys[:1<<14] {
		ct.Search(k)
	}
	mt["core.prefetches_per_search"] = float64(counter.NativeStats().Prefetches-before) / (1 << 14)
	before = counter.NativeStats().Prefetches
	scanned = 0
	for _, s := range starts {
		sc := ct.NewScan(shardPairs[s].Key, shardPairs[s+rows-1].Key)
		for n := sc.NextPairs(buf); n > 0; n = sc.NextPairs(buf) {
			scanned += n
		}
	}
	mt["core.prefetches_per_scan_row"] = float64(counter.NativeStats().Prefetches-before) / float64(scanned)
	return nil
}

// replaySim counts simulated cycles of searches and scans on the
// simulated cache hierarchy (DefaultConfig), over the first simKeys of
// the shard.
func replaySim(w *workload, def serverDefaults, seed uint64, pairs []core.Pair, rec *recorder, mt map[string]float64) error {
	h := memsys.New(memsys.DefaultConfig())
	t, err := core.New(def.tree(h))
	if err != nil {
		return err
	}
	if err := t.Bulkload(pairs, storeFill); err != nil {
		return err
	}
	const searches, scans = 1 << 14, 32
	keys := searchKeys(w, seed, pairs, searches)
	before := h.Stats()
	timed(rec, "memsys.sim_search", searches, func(i int) { t.Search(keys[i]) })
	d := h.Stats().Sub(before)
	mt["memsys.sim_cycles_per_search"] = float64(d.Total()) / searches
	mt["memsys.sim_stall_frac_search"] = float64(d.Stall) / float64(d.Total())
	rows := min(treeScanRows, len(pairs))
	starts := scanStarts(seed, len(pairs), rows, scans)
	buf := make([]core.Pair, 256)
	scanned := 0
	before = h.Stats()
	timed(rec, "memsys.sim_scan", scans, func(i int) {
		sc := t.NewScan(pairs[starts[i]].Key, pairs[starts[i]+rows-1].Key)
		for n := sc.NextPairs(buf); n > 0; n = sc.NextPairs(buf) {
			scanned += n
		}
	})
	d = h.Stats().Sub(before)
	mt["memsys.sim_cycles_per_scan_row"] = float64(d.Total()) / float64(scanned)
	return nil
}
