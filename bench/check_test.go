package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/serve"
	wl "pbtree/internal/workload"
)

func TestTIDEncodesKey(t *testing.T) {
	for _, k := range []core.Key{1, 8, 9, 1 << 20, maxKeys * 8} {
		for g := uint32(0); g < 40; g++ {
			tid := encodeTID(k, g)
			if !validTID(k, tid) || validTID(k+1, tid) {
				t.Fatalf("key %d gen %d: tid %#x", k, g, uint32(tid))
			}
			if encodeTID(k, g) == encodeTID(k, g+1) {
				t.Fatalf("key %d: consecutive writes share TID %#x", k, uint32(tid))
			}
		}
	}
	if !validTID(64, 8) || validTID(64, 9) || validTID(65, 8) {
		t.Fatal("preloaded TIDs are key/8 for multiples of 8 only")
	}
}

func lookups(pairs ...any) []serve.Lookup {
	var out []serve.Lookup
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, serve.Lookup{Found: pairs[i].(bool), TID: core.TID(pairs[i+1].(int))})
	}
	return out
}

func mustFail(t *testing.T, what string, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("%s: got %v, want an error containing %q", what, err, substr)
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	const n, slots = 1000, 4
	m := newModel(n, slots)
	// Slot owner(16) writes a new TID to 16 and inserts 17.
	for _, p := range []core.Pair{{Key: 16, TID: encodeTID(16, 3)}, {Key: 17, TID: encodeTID(17, 1)}} {
		m.beginWrite(p.Key)
		m.endWrite(p.Key, writeApplied, true, p.TID)
	}
	m.beginWrite(24)
	m.endWrite(24, writeApplied, false, 0) // deleted

	keys := []core.Key{8, 16, 17, 24, 25}
	before := make([]entry, len(keys))
	for i, k := range keys {
		before[i] = m.get(k)
	}
	good := lookups(true, 1, true, int(encodeTID(16, 3)), true, int(encodeTID(17, 1)), false, 0, false, 0)
	if err := checkLookups(keys, before, m, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	bad := lookups(true, 1, true, 3, true, int(encodeTID(17, 1)), false, 0, false, 0)
	mustFail(t, "TID of another key", checkLookups(keys, before, m, bad), "does not encode")
	stale := lookups(true, 1, true, 2, true, int(encodeTID(17, 1)), false, 0, false, 0)
	stale[1].TID = encodeTID(16, 2) // a valid but overwritten value
	mustFail(t, "lost overwrite", checkLookups(keys, before, m, stale), "want")
	missing := lookups(false, 0, true, int(encodeTID(16, 3)), true, int(encodeTID(17, 1)), false, 0, false, 0)
	mustFail(t, "missing preloaded key", checkLookups(keys, before, m, missing), "found=false")
	missing = lookups(true, 1, true, int(encodeTID(16, 3)), false, 0, false, 0, false, 0)
	mustFail(t, "missing inserted key in its owner's partition", checkLookups(keys, before, m, missing), "found=false")
	resurrected := lookups(true, 1, true, int(encodeTID(16, 3)), true, int(encodeTID(17, 1)), true, 3, false, 0)
	mustFail(t, "deleted key found", checkLookups(keys, before, m, resurrected), "found=true")
	mustFail(t, "short answer", checkLookups(keys, before, m, good[:2]), "lookups for")
}

func TestCheckerToleratesRacingWrite(t *testing.T) {
	m := newModel(100, 2)
	before := m.get(16)
	m.beginWrite(16) // in flight while the read runs
	if err := checkLookups([]core.Key{16}, []entry{before}, m, lookups(false, 0)); err != nil {
		t.Fatalf("read racing a delete rejected: %v", err)
	}
	mustFail(t, "racing read still checks the TID", checkLookups([]core.Key{16}, []entry{before}, m, lookups(true, 5)), "does not encode")
}

func TestRowCheckerRejectsBadScans(t *testing.T) {
	m := newModel(1000, 2)
	rows := func(keys ...core.Key) []core.Pair {
		var ps []core.Pair
		for _, k := range keys {
			ps = append(ps, core.Pair{Key: k, TID: core.TID(k / 8)})
		}
		return ps
	}
	rc := newRowChecker(m, 100, 140)
	if err := rc.chunk(rows(104, 112, 120)); err != nil {
		t.Fatal(err)
	}
	if err := rc.chunk(rows(128, 136)); err != nil {
		t.Fatal(err)
	}
	if err := rc.done(0); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "out of order", newRowChecker(m, 100, 140).chunk(rows(104, 112, 104)), "not ascending")
	rc = newRowChecker(m, 100, 140)
	rc.chunk(rows(104, 112))
	mustFail(t, "out of order across chunks", rc.chunk(rows(112)), "not ascending")
	mustFail(t, "out of range", newRowChecker(m, 100, 140).chunk(rows(144)), "outside")
	mustFail(t, "below range", newRowChecker(m, 100, 140).chunk(rows(96)), "outside")
	bad := rows(104)
	bad[0].TID = 99
	mustFail(t, "wrong TID", newRowChecker(m, 100, 140).chunk(bad), "does not encode")
	mustFail(t, "skipped row", newRowChecker(m, 100, 140).chunk(rows(104, 120)), "want key 112")
	rc = newRowChecker(m, 100, 140)
	rc.chunk(rows(104, 112))
	mustFail(t, "truncated scan", rc.done(0), "2 rows, want 5")
	rc = newRowChecker(m, 100, 140)
	rc.chunk(rows(104, 112))
	if err := rc.done(2); err != nil {
		t.Fatalf("limit-truncated scan rejected: %v", err)
	}

	// Once writes happened, rows are checked for order, range and TID only.
	m.beginWrite(112)
	m.endWrite(112, writeApplied, false, 0)
	rc = newRowChecker(m, 100, 140)
	if err := rc.chunk(rows(104, 120)); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "wrong TID after writes", rc.chunk([]core.Pair{{Key: 128, TID: 3}}), "does not encode")
}

func TestGeneratorIsDeterministicAndOwnsWrites(t *testing.T) {
	w, err := findWorkload("ingest")
	if err != nil {
		t.Fatal(err)
	}
	w.Keys = 5000
	for slot := 0; slot < w.slots(); slot++ {
		a := newGen(&w, w.Keys, 7, uint64(slot), slot, w.Mix)
		b := newGen(&w, w.Keys, 7, uint64(slot), slot, w.Mix)
		for i := 0; i < 500; i++ {
			x, y := a.next(), b.next()
			if x.kind != y.kind || !slices.Equal(x.keys, y.keys) || x.tid != y.tid {
				t.Fatalf("slot %d op %d differs between equal seeds", slot, i)
			}
			if x.kind == kPut || x.kind == kDel {
				if o := owner(x.keys[0], w.slots()); o != slot {
					t.Fatalf("slot %d writes key %d owned by slot %d", slot, x.keys[0], o)
				}
			}
			if x.kind == kPut && !validTID(x.keys[0], x.tid) {
				t.Fatalf("PUT %d carries TID %#x", x.keys[0], uint32(x.tid))
			}
		}
	}
}

func TestTallyCountsEveryWrongAnswer(t *testing.T) {
	tl := &tally{}
	now := time.Now()
	for i := 0; i < 12; i++ {
		tl.add(cGet, now, now, errWrong{fmt.Errorf("wrong %d", i)}, true)
	}
	tl.add(cGet, now, now, &serve.RetryError{}, true)
	tl.add(cGet, now, now, nil, true)
	// Outside the window only the wrong answer counts.
	tl.add(cGet, now, now, errWrong{fmt.Errorf("wrong during warm-up")}, false)
	tl.add(cGet, now, now, &serve.RetryError{}, false)
	tl.add(cGet, now, now, nil, false)
	if tl.attempted != 14 || tl.ok() != 1 || tl.failed != 1 || tl.wrongN != 13 || len(tl.wrong) != 10 || len(tl.lat[cGet]) != 1 {
		t.Fatalf("attempted %d ok %d failed %d wrong %d (%d kept), %d samples",
			tl.attempted, tl.ok(), tl.failed, tl.wrongN, len(tl.wrong), len(tl.lat[cGet]))
	}
}

// TestWrongAnswerDuringWarmUpFailsRun serves TIDs that do not encode
// their keys for the first 200 ms of a 1 s warm-up and the right ones
// after it, and checks the run still fails.
func TestWrongAnswerDuringWarmUpFailsRun(t *testing.T) {
	const n = 64
	bad := wl.SortedPairs(n)
	for i := range bad {
		bad[i].TID++
	}
	st, err := serve.Open(serve.StoreConfig{}, bad)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WaitReady(); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(st, serve.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	fixed := make(chan error, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		for _, p := range wl.SortedPairs(n) {
			if err := st.Put(p.Key, p.TID); err != nil {
				fixed <- err
				return
			}
		}
		fixed <- nil
	}()
	w := workload{Name: "get-only", Keys: n, Conns: 1, Window: 2, Mix: [numKinds]int{kGet: 100}}
	tl, err := drive(srv.Addr().String(), &w, newModel(n, w.slots()), 1, 0, time.Second, 500*time.Millisecond, false)
	if ferr := <-fixed; err == nil {
		err = ferr
	}
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.ok() != tl.attempted {
		t.Fatalf("window: %d attempted, %d correct; every answer there should be right", tl.attempted, tl.ok())
	}
	if tl.wrongN == 0 {
		t.Fatal("no wrong answer recorded during the warm-up")
	}
	if res := finish(tl, map[string]float64{}, endToEnd); res.Correct {
		t.Fatalf("run with %d wrong warm-up answers reported correct", tl.wrongN)
	}
}
