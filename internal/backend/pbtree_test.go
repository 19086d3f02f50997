package backend

import (
	"slices"
	"testing"
	"time"

	"pbtree/internal/core"
	"pbtree/internal/memsys"
	"pbtree/internal/workload"
)

// sealedPBTree returns a non-durable engine published at version 1
// over SortedPairs(n).
func sealedPBTree(t *testing.T, n int) *PBTree {
	t.Helper()
	b := NewPBTree(core.Config{Width: 8, Prefetch: true, Mem: memsys.DefaultNative()}, 0.8, nil, "")
	if err := b.Bootstrap(workload.SortedPairs(n)); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(1); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestApplyBatchDrainBound pins the reader drain: a reader that holds
// the previous snapshot for well under drainBound lets the writer
// recycle that tree as the next spare, one that holds it past the
// bound costs exactly one abandonment (a fresh clone), and in both
// cases the published tree, the spare and an oracle agree.
func TestApplyBatchDrainBound(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name     string
		hold     time.Duration
		abandons uint64
	}{
		{"short reader recycles", 100 * time.Microsecond, 0},
		{"long reader abandons", 3 * drainBound, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := sealedPBTree(t, n)
			want := workload.SortedPairs(n)
			pinned := b.Snapshot()
			before := pinned.AppendPairs(nil)
			// The reader checks its view just before letting go: the
			// batch must not leak into a snapshot that is still held.
			leaked := make(chan bool, 1)
			go func() {
				time.Sleep(tc.hold)
				l := !slices.Equal(pinned.AppendPairs(nil), before)
				pinned.Release()
				leaked <- l
			}()

			ws := []Write{
				{Puts: []core.Pair{{Key: 4, TID: 99}, {Key: 8, TID: 77}}},
				{Dels: []core.Key{16}},
			}
			acked := false
			if err := b.ApplyBatch(ws, 2, 2, func(error) { acked = true }); err != nil || !acked {
				t.Fatalf("ApplyBatch: err %v, acked %v", err, acked)
			}
			want = append([]core.Pair{{Key: 4, TID: 99}}, want...)
			want[1].TID = 77
			want = slices.DeleteFunc(want, func(p core.Pair) bool { return p.Key == 16 })

			if got := b.Stats().DrainAbandons; got != tc.abandons {
				t.Fatalf("DrainAbandons = %d, want %d", got, tc.abandons)
			}
			recycled := b.spare == pinned.(*pbSnapshot).tree
			if recycled != (tc.abandons == 0) {
				t.Fatalf("spare is the recycled tree: %v, want %v", recycled, tc.abandons == 0)
			}
			if <-leaked {
				t.Fatal("the batch leaked into the pinned snapshot")
			}
			pub := b.Snapshot()
			old := pub.(*pbSnapshot).tree
			got := pub.AppendPairs(nil)
			pub.Release()
			if !slices.Equal(got, want) {
				t.Fatalf("published %d pairs, want %d matching the oracle", len(got), len(want))
			}
			if got := b.spare.AppendPairs(nil); !slices.Equal(got, want) {
				t.Fatalf("spare holds %d pairs, want %d matching the published tree", len(got), len(want))
			}

			// With no reader left, the next batch drains and recycles.
			if err := b.ApplyBatch([]Write{{Puts: []core.Pair{{Key: 12, TID: 5}}}}, 3, 3, func(error) {}); err != nil {
				t.Fatal(err)
			}
			if got := b.Stats().DrainAbandons; got != tc.abandons {
				t.Fatalf("DrainAbandons after an unpinned batch = %d, want %d", got, tc.abandons)
			}
			if b.spare != old {
				t.Fatal("an unpinned previous tree was not recycled")
			}
		})
	}
}
