package core

import (
	"bytes"
	"testing"
)

// pruneFixture builds a 3-node log where every peer holds the full
// prefix (cursors advanced via NoteVouch), frozen through tag fr.
func pruneFixture(t *testing.T, tags []Tag, fr Tag) *ValueLog {
	t.Helper()
	l := NewValueLog(3, 0)
	for _, tag := range tags {
		v := diffValue(tag, int(tag)%3)
		l.Add(1, v)
		l.Add(2, v)
	}
	l.AdvanceFrontier(fr)
	ck := l.Frontier()
	for j := 1; j < 3; j++ {
		if !l.NoteVouch(j, ck) {
			t.Fatalf("NoteVouch(%d, %+v) refused", j, ck)
		}
	}
	return l
}

func TestPruneToBasic(t *testing.T) {
	l := pruneFixture(t, []Tag{2, 4, 6, 8, 10, 12}, 8)
	ck := l.Frontier()
	if ck.Count != 4 {
		t.Fatalf("frontier count = %d, want 4", ck.Count)
	}
	pre := l.AllView()
	preExtract := pre.Extract(3)
	if !l.PruneTo(ck) {
		t.Fatal("PruneTo refused a fully-vouched checkpoint")
	}
	if got := l.PrunedCount(); got != 4 {
		t.Fatalf("PrunedCount = %d, want 4", got)
	}
	if got := l.RetainedLen(); got != 2 {
		t.Fatalf("RetainedLen = %d, want 2", got)
	}
	if got := l.SelfLen(); got != 6 {
		t.Fatalf("SelfLen = %d, want 6 (absolute)", got)
	}
	for j := 0; j < 3; j++ {
		if got := l.Len(j); got != 6 {
			t.Fatalf("Len(%d) = %d, want 6", j, got)
		}
		if got := l.CountLE(j, 8); got != 4 {
			t.Fatalf("CountLE(%d, 8) = %d, want 4", j, got)
		}
	}
	// The pruned checkpoint itself must still be vouchable, and the
	// frontier must be unchanged in absolute terms.
	if !l.Vouches(ck) {
		t.Fatal("log no longer vouches the checkpoint it pruned to")
	}
	if got := l.Frontier(); got != ck {
		t.Fatalf("Frontier changed across prune: %+v vs %+v", got, ck)
	}
	// Extraction must be unchanged: the pre-extract stands in.
	post := l.AllView()
	if got := post.LogicalLen(); got != 6 {
		t.Fatalf("LogicalLen = %d, want 6", got)
	}
	for w, want := range preExtract {
		if got := post.Extract(3)[w]; !bytes.Equal(got, want) {
			t.Fatalf("Extract[%d] = %q, want %q", w, got, want)
		}
	}
	// Standalone must materialize each writer's latest pruned value and
	// extract identically.
	sa := post.Standalone()
	if sa.Pruned() != 0 {
		t.Fatal("Standalone view still depends on a pruned prefix")
	}
	for w, want := range preExtract {
		if got := sa.Extract(3)[w]; !bytes.Equal(got, want) {
			t.Fatalf("Standalone Extract[%d] = %q, want %q", w, got, want)
		}
	}
	// Delta round-trip across the prune point.
	if delta, ok := l.DeltaAbove(post, ck); !ok {
		t.Fatal("DeltaAbove refused the pruned checkpoint")
	} else if len(delta) != 2 {
		t.Fatalf("delta has %d values, want 2", len(delta))
	} else if got, ok2 := l.ComposeAt(ck, delta); !ok2 || !got.Equal(post) {
		t.Fatalf("ComposeAt mismatch: %v vs %v", got, post)
	}
}

func TestPruneToRefusals(t *testing.T) {
	// Lagging peer cursor: peer 2 never vouched.
	l := NewValueLog(3, 0)
	for _, tag := range []Tag{2, 4, 6} {
		l.Add(1, diffValue(tag, 1))
	}
	l.AdvanceFrontier(6)
	ck := l.Frontier()
	l.NoteVouch(1, ck)
	if l.PruneTo(ck) {
		t.Fatal("PruneTo succeeded with a lagging peer cursor")
	}
	l.NoteVouch(2, ck)
	if !l.PruneTo(ck) {
		t.Fatal("PruneTo refused after all cursors caught up")
	}
	// Empty and stale checkpoints.
	if l.PruneTo(Checkpoint{}) {
		t.Fatal("PruneTo succeeded on the zero checkpoint")
	}
	if l.PruneTo(Checkpoint{Tag: 6, Count: 3, Digest: 0xbad}) {
		t.Fatal("PruneTo succeeded on a digest mismatch")
	}
}

func TestNoteVouchAbsorbsStragglers(t *testing.T) {
	l := NewValueLog(3, 0)
	for _, tag := range []Tag{2, 4, 6, 8} {
		l.Add(0, diffValue(tag, 0))
	}
	// Peer 1 has only a straggler in the middle of the prefix.
	l.Add(1, diffValue(6, 0))
	if got := l.Len(1); got != 1 {
		t.Fatalf("Len(1) = %d, want 1", got)
	}
	l.AdvanceFrontier(8)
	ck := l.Frontier()
	if !l.NoteVouch(1, ck) {
		t.Fatal("NoteVouch refused own frontier")
	}
	if got := l.Len(1); got != 4 {
		t.Fatalf("Len(1) after vouch = %d, want 4", got)
	}
	// A foreign checkpoint must be refused.
	if l.NoteVouch(1, Checkpoint{Tag: 8, Count: 4, Digest: 0xbad}) {
		t.Fatal("NoteVouch accepted a foreign digest")
	}
}

func TestAddBelowPruneRejected(t *testing.T) {
	l := pruneFixture(t, []Tag{2, 4, 6}, 6)
	if !l.PruneTo(l.Frontier()) {
		t.Fatal("PruneTo refused")
	}
	if newJ, newSelf := l.Add(1, diffValue(3, 1)); newJ || newSelf {
		t.Fatal("Add admitted a new value below the pruned checkpoint tag")
	}
	if got := l.SelfLen(); got != 3 {
		t.Fatalf("SelfLen = %d, want 3", got)
	}
	// Values above the prune tag are unaffected.
	if _, newSelf := l.Add(1, diffValue(9, 1)); !newSelf {
		t.Fatal("Add rejected a value above the pruned checkpoint tag")
	}
}

// TestPrunedTSIsLastPrunedValue: the presumed-pruned floor is the
// timestamp of the last value the prune dropped, not the checkpoint's
// frontier tag. A frontier may be frozen at a tag above every value it
// holds, and a value tagged between the two was not in the prefix; nor
// was one that ties the last pruned value's tag with a larger writer ID.
// Both must still be admitted when they arrive.
func TestPrunedTSIsLastPrunedValue(t *testing.T) {
	l := pruneFixture(t, []Tag{2, 4, 6}, 10)
	ck := l.Frontier()
	if ck.Tag != 10 || ck.Count != 3 {
		t.Fatalf("frontier = %+v, want tag 10 count 3", ck)
	}
	if !l.PruneTo(ck) {
		t.Fatal("PruneTo refused")
	}
	if got, want := l.PrunedTS(), (Timestamp{Tag: 6, Writer: 0}); got != want {
		t.Fatalf("PrunedTS = %+v, want %+v (the last pruned value)", got, want)
	}
	if _, newSelf := l.Add(1, diffValue(8, 1)); !newSelf {
		t.Fatal("Add dropped a value tagged between the last pruned value and the checkpoint tag")
	}
	if _, newSelf := l.Add(1, diffValue(6, 2)); !newSelf {
		t.Fatal("Add dropped a value tying the last pruned value's tag with a larger writer ID")
	}
	if _, newSelf := l.Add(1, diffValue(6, 0)); newSelf {
		t.Fatal("Add re-admitted the last pruned value")
	}
	if _, newSelf := l.Add(1, diffValue(5, 1)); newSelf {
		t.Fatal("Add admitted a new value below the last pruned value")
	}
	if got := l.SelfLen(); got != 5 {
		t.Fatalf("SelfLen = %d, want 5", got)
	}
}

// TestCopyOnWriteLeavesHeadroom: a below-frontier insert reallocates the
// backing array, and the append that follows it must fit in that new
// array instead of reallocating and copying the log a second time.
func TestCopyOnWriteLeavesHeadroom(t *testing.T) {
	l := NewValueLog(3, 0)
	for tag := Tag(2); tag <= 200; tag += 2 {
		l.AddSelf(diffValue(tag, 0))
	}
	l.AdvanceFrontier(200)
	l.AddSelf(diffValue(101, 1)) // below the frontier: copy-on-write
	if got := l.Stats().COWInserts; got != 1 {
		t.Fatalf("COWInserts = %d, want 1", got)
	}
	before := &l.vals[0]
	l.AddSelf(diffValue(202, 0))
	if &l.vals[0] != before {
		t.Fatal("the append after a copy-on-write insert reallocated the log")
	}
}
