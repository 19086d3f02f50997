package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pbtree/internal/core"
	"pbtree/internal/serve"
)

// entry is the model's state for one written key. ver is a sequence
// lock: odd while a write to the key is in flight.
type entry struct {
	ver     uint32
	present bool
	tid     core.TID
	unsure  bool // a write's outcome is unknown (transport error, client timeout)
}

// part holds the written keys of one slot's partition. Only the owning
// slot writes it; every caller reads it.
type part struct {
	mu   sync.RWMutex
	keys map[core.Key]entry
}

// model is the expected contents of the server: the preload plus every
// write the benchmark made. A read is checked exactly when no write to
// its key was in flight while it ran, and otherwise only for a TID that
// encodes its key.
type model struct {
	n      int
	nslots int
	parts  []part
	writes atomic.Int64 // writes ever begun; scans are exact while 0
}

func newModel(n, nslots int) *model {
	m := &model{n: n, nslots: nslots, parts: make([]part, nslots)}
	for i := range m.parts {
		m.parts[i].keys = map[core.Key]entry{}
	}
	return m
}

// preloaded reports whether the server's preload holds k.
func (m *model) preloaded(k core.Key) bool {
	return k%8 == 0 && k >= 8 && int(k/8) <= m.n
}

func (m *model) get(k core.Key) entry {
	p := &m.parts[owner(k, m.nslots)]
	p.mu.RLock()
	e, ok := p.keys[k]
	p.mu.RUnlock()
	if !ok {
		e = entry{present: m.preloaded(k), tid: core.TID(k / 8)}
	}
	return e
}

func (m *model) version(k core.Key) uint32 { return m.get(k).ver }

// beginWrite marks a write to k in flight. Only k's owner calls it.
func (m *model) beginWrite(k core.Key) {
	m.writes.Add(1)
	e := m.get(k)
	e.ver++
	m.set(k, e)
}

// endWrite records the outcome of the write begun on k: applied with
// the given state, rejected (no effect), or unknown.
func (m *model) endWrite(k core.Key, outcome int, present bool, tid core.TID) {
	e := m.get(k)
	switch outcome {
	case writeApplied:
		e.present, e.tid = present, tid
	case writeUnknown:
		e.unsure = true
	}
	e.ver++
	m.set(k, e)
}

const (
	writeApplied = iota
	writeRejected
	writeUnknown
)

func (m *model) set(k core.Key, e entry) {
	p := &m.parts[owner(k, m.nslots)]
	p.mu.Lock()
	p.keys[k] = e
	p.mu.Unlock()
}

// checkLookup checks one lookup result. before is the model's entry
// when the request was sent; verAfter the key's version once the reply
// arrived.
func checkLookup(k core.Key, before entry, verAfter uint32, found bool, tid core.TID) error {
	if found && !validTID(k, tid) {
		return fmt.Errorf("key %d: TID %#x does not encode the key", k, uint32(tid))
	}
	if before.ver != verAfter || before.ver%2 != 0 || before.unsure {
		return nil // a write raced the read: either value is right
	}
	if found != before.present {
		return fmt.Errorf("key %d: found=%v, want %v", k, found, before.present)
	}
	if found && tid != before.tid {
		return fmt.Errorf("key %d: TID %#x, want %#x", k, uint32(tid), uint32(before.tid))
	}
	return nil
}

// checkLookups checks an MGET (or GET) answer against the model.
func checkLookups(keys []core.Key, before []entry, m *model, got []serve.Lookup) error {
	if len(got) != len(keys) {
		return fmt.Errorf("%d lookups for %d keys", len(got), len(keys))
	}
	for i, k := range keys {
		if err := checkLookup(k, before[i], m.version(k), got[i].Found, got[i].TID); err != nil {
			return err
		}
	}
	return nil
}

// rowChecker checks the rows of one scan or stream, chunk by chunk:
// ascending, inside [start, end], each TID encoding its key, and, while
// nothing has been written, exactly the preloaded keys of the range.
type rowChecker struct {
	start, end core.Key
	exact      *model // nil when writes may have changed the range
	last       core.Key
	rows       int
}

func newRowChecker(m *model, start, end core.Key) *rowChecker {
	rc := &rowChecker{start: start, end: end}
	if m.writes.Load() == 0 {
		rc.exact = m
	}
	return rc
}

func (rc *rowChecker) chunk(rows []core.Pair) error {
	for _, p := range rows {
		if p.Key < rc.start || p.Key > rc.end {
			return fmt.Errorf("row key %d outside [%d, %d]", p.Key, rc.start, rc.end)
		}
		if rc.rows > 0 && p.Key <= rc.last {
			return fmt.Errorf("row key %d after %d: not ascending", p.Key, rc.last)
		}
		if !validTID(p.Key, p.TID) {
			return fmt.Errorf("row key %d: TID %#x does not encode the key", p.Key, uint32(p.TID))
		}
		if rc.exact != nil {
			want := rc.nextPreloaded()
			if p.Key != want || p.TID != core.TID(p.Key/8) {
				return fmt.Errorf("row %d: got key %d tid %d, want key %d", rc.rows, p.Key, p.TID, want)
			}
		}
		rc.last = p.Key
		rc.rows++
	}
	return nil
}

// nextPreloaded is the preloaded key the next row must carry.
func (rc *rowChecker) nextPreloaded() core.Key {
	if rc.rows > 0 {
		return rc.last + 8
	}
	return firstPreloaded(rc.start)
}

// firstPreloaded is the smallest preloaded key position at or above k.
func firstPreloaded(k core.Key) core.Key { return max(8, (k+7)/8*8) }

// done checks the row count once the scan ends: a limited scan of an
// unchanged range returns min(limit, keys in range) rows.
func (rc *rowChecker) done(limit int) error {
	if rc.exact == nil {
		return nil
	}
	want := 0
	for k := firstPreloaded(rc.start); k <= rc.end && rc.exact.preloaded(k); k += 8 {
		want++
	}
	if limit > 0 {
		want = min(want, limit)
	}
	if rc.rows != want {
		return fmt.Errorf("scan [%d, %d]: %d rows, want %d", rc.start, rc.end, rc.rows, want)
	}
	return nil
}
