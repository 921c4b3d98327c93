package core

import "sort"

// ValueLog is the history-independent replacement for an array of per-peer
// ValueSets. One timestamp-sorted backing array holds each value the node
// knows exactly once; per-peer membership (V[j] in the paper) is tracked as
// a prefix cursor plus a small straggler set, which is sound because the
// algorithms maintain V[j] ⊆ V[self] (every value received from any j is
// also added to V[self], line 40 of Algorithm 1).
//
// The log additionally maintains a stable frontier: when the node performs
// a good lattice operation at tag r — so the prefix with tags ≤ r is known
// good at n−f nodes — AdvanceFrontier(r) freezes that prefix. The frozen
// region is immutable in place: views returned by ViewLE/AllView alias it
// zero-copy, and a straggler insert below the frontier reallocates the
// backing array (copy-on-write) so already-published views never change.
// A digest prefix-sum array summarizes every log prefix, so a frontier
// Checkpoint (count + order-independent digest) advertised by a peer can
// be vouched for in O(1); borrow replies then ship only the delta above
// the checkpoint instead of the full history.
//
// Per-operation costs with H total values and n nodes: Add is O(log H)
// amortized (appends dominate in tag order; a mid-tail insert memmoves
// only the unfrozen tail), CountLE is O(log H), NewEQTrackerFromLog is
// O(n log H), and ViewLE at or below the frontier is O(1).
// Garbage collection: once a checkpoint has been vouched by every node
// (each peer's NoteVouch recorded), PruneTo drops the value prefix below
// it. Counts stay absolute across pruning — off is the number of pruned
// values, and SelfLen/Len/CountLE/Frontier all report off + physical —
// while digsum is re-based so digsum[i] remains the absolute digest of
// pruned ∪ vals[:i] exactly (the digests are order-independent sums).
// The pruned prefix survives as a per-writer extract (preExt) attached to
// views, so SCAN extraction still sees every writer's latest value.
type ValueLog struct {
	n, self  int
	vals     []Value  // sorted by timestamp, no duplicates (above the pruned prefix)
	digsum   []uint64 // digsum[i] = digest of pruned prefix ∪ vals[:i]; len = len(vals)+1
	frozen   int      // vals[:frozen] is immutable in place
	frontier Tag      // largest tag passed to AdvanceFrontier
	peers    []peerSet

	off      int       // values pruned below the globally-vouched checkpoint
	prunedTS Timestamp // the last (largest) pruned value's timestamp

	// Per-writer extract over the pruned prefix (cumulative across prunes),
	// published as preExt and attached to views so extracts stay exact.
	preTags []Tag
	prePays [][]byte
	preExt  *baseExtract

	// Master per-writer extract over the frozen prefix, republished as an
	// immutable snapshot (ext) at each freeze so views can cache it.
	extTags  []Tag
	extPays  [][]byte
	ext      *baseExtract
	extOK    bool // false once a writer outside [0,n) is seen
	extStale bool // master differs from published snapshot

	stats LogStats
}

// peerSet is node j's membership in the shared log: j holds every value in
// vals[:prefix) plus the timestamps in strag. Invariant: every straggler's
// position in vals is ≥ prefix (so all straggler timestamps are greater
// than all prefix timestamps, and strag is sorted).
type peerSet struct {
	prefix int
	strag  []Timestamp
}

// Checkpoint summarizes a log prefix: every held value with tag ≤ Tag, how
// many there are, and an order-independent digest over them. Two nodes
// whose prefixes carry equal Count and Digest hold the same value sequence
// below that point (up to checksum collisions; the digest is an integrity
// check for the crash model, not cryptographic).
type Checkpoint struct {
	Tag    Tag
	Count  int
	Digest uint64
}

// LogStats counts structural events, exposed for benchmarks and tests.
type LogStats struct {
	Appends     int64 // new value appended at the end of the log
	TailInserts int64 // new value memmoved into the unfrozen tail
	COWInserts  int64 // new value below the frontier forced a reallocation
	Demotions   int64 // peer prefix values demoted to stragglers
	Freezes     int64 // AdvanceFrontier calls that grew the frozen prefix
	Prunes      int64 // PruneTo calls that dropped a prefix
	PrunedVals  int64 // total values garbage-collected by PruneTo
}

// NewValueLog returns an empty log for node self of n.
func NewValueLog(n, self int) *ValueLog {
	l := &ValueLog{
		n:       n,
		self:    self,
		digsum:  make([]uint64, 1, 16),
		peers:   make([]peerSet, n),
		extTags: make([]Tag, n),
		extPays: make([][]byte, n),
		preTags: make([]Tag, n),
		prePays: make([][]byte, n),
		extOK:   true,
	}
	for i := range l.extTags {
		l.extTags[i] = -1
		l.preTags[i] = -1
	}
	return l
}

// N returns the cluster size the log was built for.
func (l *ValueLog) N() int { return l.n }

// Stats returns the structural counters.
func (l *ValueLog) Stats() LogStats { return l.stats }

// upperBound returns the number of values with tag ≤ r.
func (l *ValueLog) upperBound(r Tag) int {
	return sort.Search(len(l.vals), func(i int) bool { return l.vals[i].TS.Tag > r })
}

// locate returns the insertion position for ts and whether it is present.
func (l *ValueLog) locate(ts Timestamp) (int, bool) {
	p := searchSeg(l.vals, ts)
	return p, p < len(l.vals) && l.vals[p].TS == ts
}

// Has reports whether the node holds a value with timestamp ts.
func (l *ValueLog) Has(ts Timestamp) bool {
	_, ok := l.locate(ts)
	return ok
}

// Get returns the payload stored under ts.
func (l *ValueLog) Get(ts Timestamp) ([]byte, bool) {
	p, ok := l.locate(ts)
	if !ok {
		return nil, false
	}
	return l.vals[p].Payload, true
}

// SelfLen returns |V[self]|: the total number of values held, counting
// the pruned prefix.
func (l *ValueLog) SelfLen() int { return l.off + len(l.vals) }

// RetainedLen returns the number of values held physically (after GC).
func (l *ValueLog) RetainedLen() int { return len(l.vals) }

// PrunedCount returns how many values have been garbage-collected.
func (l *ValueLog) PrunedCount() int { return l.off }

// PrunedTS returns the timestamp of the last pruned value (zero when
// none). Every node held every value at or below it in timestamp order
// when the prune's checkpoint was vouched (see PruneTo), so such a value
// that this log lacks was pruned, not missed.
func (l *ValueLog) PrunedTS() Timestamp { return l.prunedTS }

// Len returns |V[j]|, counting the pruned prefix (a prune requires every
// peer's cursor to cover it).
func (l *ValueLog) Len(j int) int {
	if j == l.self {
		return l.off + len(l.vals)
	}
	ps := &l.peers[j]
	return l.off + ps.prefix + len(ps.strag)
}

// CountLE returns |V[j]^{≤r}| in O(log H + log |strag|). Exact for
// r ≥ PrunedTS().Tag (every pruned value has a tag at or below it, so
// the pruned prefix is entirely below any such bound); below the prune
// point the
// count degrades to the prune-inclusive upper bound, which no protocol
// query hits — operation tags only grow past vouched frontiers.
func (l *ValueLog) CountLE(j int, r Tag) int {
	ub := l.upperBound(r)
	if j == l.self {
		return l.off + ub
	}
	ps := &l.peers[j]
	c := ps.prefix
	if ub < c {
		c = ub
	}
	c += sort.Search(len(ps.strag), func(i int) bool { return ps.strag[i].Tag > r })
	return l.off + c
}

// Add records that value v was received from node j, inserting it into
// V[self] too (the containment invariant). It reports whether v was new to
// V[j] and new to V[self], matching ValueSet.Add semantics for EQTracker.
func (l *ValueLog) Add(j int, v Value) (newToJ, newToSelf bool) {
	p, present := l.locate(v.TS)
	if !present {
		if l.off > 0 && !l.prunedTS.Less(v.TS) {
			// Presumed already pruned: re-admitting a value at or below the
			// prune floor would double-count it in the absolute counts and
			// diverge the digests. In-protocol this loses nothing — every
			// node held every such value when the prune's checkpoint was
			// vouched (see PruneTo), so this is a late copy.
			return false, false
		}
		l.insert(p, v)
		newToSelf = true
	}
	if j == l.self {
		return newToSelf, newToSelf
	}
	ps := &l.peers[j]
	if p < ps.prefix {
		// insert() demotes any prefix spanning the insertion point first,
		// so p < prefix means the value pre-existed inside j's prefix.
		return false, newToSelf
	}
	if p == ps.prefix {
		ps.prefix++
		l.absorb(ps)
		return true, newToSelf
	}
	k := sort.Search(len(ps.strag), func(i int) bool { return !ps.strag[i].Less(v.TS) })
	if k < len(ps.strag) && ps.strag[k] == v.TS {
		return false, newToSelf
	}
	ps.strag = append(ps.strag, Timestamp{})
	copy(ps.strag[k+1:], ps.strag[k:])
	ps.strag[k] = v.TS
	return true, newToSelf
}

// AddSelf records the node's own value: Add(self, v).
func (l *ValueLog) AddSelf(v Value) bool {
	n, _ := l.Add(l.self, v)
	return n
}

// absorb advances a peer prefix over stragglers that have become
// contiguous with it.
func (l *ValueLog) absorb(ps *peerSet) {
	for len(ps.strag) > 0 && ps.prefix < len(l.vals) && ps.strag[0] == l.vals[ps.prefix].TS {
		ps.prefix++
		ps.strag = ps.strag[1:]
	}
}

// insert places v at position p, demoting any peer prefix that spans p
// (its values at positions ≥ p become stragglers, keeping the position
// invariant; Add re-absorbs them right away when j is receiving v itself).
// Below the frontier the backing array is reallocated so published views
// stay immutable; inside the unfrozen tail a memmove suffices because no
// view references those positions.
func (l *ValueLog) insert(p int, v Value) {
	for j := range l.peers {
		if j == l.self {
			continue
		}
		ps := &l.peers[j]
		if ps.prefix <= p {
			continue
		}
		demoted := l.vals[p:ps.prefix]
		ns := make([]Timestamp, 0, len(demoted)+len(ps.strag))
		for i := range demoted {
			ns = append(ns, demoted[i].TS)
		}
		ps.strag = append(ns, ps.strag...)
		ps.prefix = p
		l.stats.Demotions += int64(len(demoted))
	}
	switch {
	case p < l.frozen:
		nv := make([]Value, len(l.vals)+1, headroom(len(l.vals)+1))
		copy(nv, l.vals[:p])
		nv[p] = v
		copy(nv[p+1:], l.vals[p:])
		l.vals = nv
		l.frozen++
		l.noteFrozen(v)
		l.publishExt()
		l.stats.COWInserts++
	case p == len(l.vals):
		l.vals = append(l.vals, v)
		l.stats.Appends++
	default:
		l.vals = append(l.vals, Value{})
		copy(l.vals[p+1:], l.vals[p:])
		l.vals[p] = v
		l.stats.TailInserts++
	}
	// Extend/repair the digest prefix sums from p on.
	l.digsum = append(l.digsum, 0)
	for i := p; i < len(l.vals); i++ {
		l.digsum[i+1] = l.digsum[i] + digestValue(l.vals[i])
	}
}

// headroom is the capacity for a reallocated array of n elements: spare
// room in the manner of append's growth, so the appends that follow a
// copy-on-write insert or a prune do not reallocate and copy again.
func headroom(n int) int { return n + n/4 + 16 }

// noteFrozen folds a newly frozen value into the master per-writer extract.
func (l *ValueLog) noteFrozen(v Value) {
	w := v.TS.Writer
	if w < 0 || w >= l.n {
		l.extOK = false
		return
	}
	if v.TS.Tag > l.extTags[w] {
		l.extTags[w] = v.TS.Tag
		l.extPays[w] = v.Payload
		l.extStale = true
	}
}

// publishExt snapshots the master extract for attachment to views.
func (l *ValueLog) publishExt() {
	if !l.extOK {
		l.ext = nil
		return
	}
	if !l.extStale && l.ext != nil {
		return
	}
	l.ext = &baseExtract{
		tags: append([]Tag(nil), l.extTags...),
		pays: append([][]byte(nil), l.extPays...),
	}
	l.extStale = false
}

// AdvanceFrontier marks every value with tag ≤ r stable: the node learned
// that the prefix V^{≤r} is an equivalence set held by n−f nodes (its own
// good lattice operation at r). The prefix is frozen in place; later
// views at or below r are zero-copy. MaxTag is ignored — freezing at the
// one-shot pseudo-tag would make every later insert a copy-on-write.
func (l *ValueLog) AdvanceFrontier(r Tag) {
	if r <= l.frontier || r == MaxTag {
		return
	}
	l.frontier = r
	nf := l.upperBound(r)
	if nf > l.frozen {
		for i := l.frozen; i < nf; i++ {
			l.noteFrozen(l.vals[i])
		}
		l.frozen = nf
		l.publishExt()
		l.stats.Freezes++
	}
}

// Frontier returns the checkpoint of the current frozen prefix (the zero
// Checkpoint when nothing is frozen yet). Count is absolute: it includes
// the pruned prefix, so checkpoints stay comparable across nodes with
// different prune points.
func (l *ValueLog) Frontier() Checkpoint {
	return Checkpoint{Tag: l.frontier, Count: l.off + l.frozen, Digest: l.digsum[l.frozen]}
}

// Vouches reports whether this log's own prefix of ck.Count values matches
// the checkpoint digest — i.e. both nodes hold the exact same value
// sequence below that point. O(1) via the digest prefix sums. Checkpoints
// strictly below this log's prune point cannot be vouched (their digest
// is no longer reconstructible), which is fine: the prune point itself
// was globally vouched, so every live checkpoint is at or above it.
func (l *ValueLog) Vouches(ck Checkpoint) bool {
	idx := ck.Count - l.off
	return idx >= 0 && idx < len(l.digsum) && l.digsum[idx] == ck.Digest
}

// withPre attaches the pruned-prefix summary to a view cut from this log.
func (l *ValueLog) withPre(v View) View {
	if l.off > 0 {
		v.pre = l.preExt
		v.pruned = l.off
	}
	return v
}

// ViewLE returns V[self]^{≤r}. At or below the frozen prefix this is a
// zero-copy alias of the log; above it, the base aliases the frozen prefix
// and only the unfrozen tail portion is copied.
func (l *ValueLog) ViewLE(r Tag) View {
	ub := l.upperBound(r)
	if ub <= l.frozen {
		var ext *baseExtract
		if ub == l.frozen {
			ext = l.ext
		}
		return l.withPre(View{base: l.vals[:ub:ub], ext: ext})
	}
	tail := make([]Value, ub-l.frozen)
	copy(tail, l.vals[l.frozen:ub])
	return l.withPre(View{base: l.vals[:l.frozen:l.frozen], tail: tail, ext: l.ext})
}

// AllView returns a view of every value held.
func (l *ValueLog) AllView() View { return l.ViewLE(MaxTag) }

// PeerViewLE materializes V[j]^{≤r} from j's cursor state: the shared
// prefix (zero-copy up to the frozen boundary) plus j's stragglers with
// tag ≤ r. The straggler-position invariant guarantees the concatenation
// is sorted.
func (l *ValueLog) PeerViewLE(j int, r Tag) View {
	if j == l.self {
		return l.ViewLE(r)
	}
	ps := &l.peers[j]
	ub := l.upperBound(r)
	limit := ps.prefix
	if ub < limit {
		limit = ub
	}
	baseN := limit
	if l.frozen < baseN {
		baseN = l.frozen
	}
	var tail []Value
	if m := limit - baseN; m > 0 {
		tail = make([]Value, m, m+len(ps.strag))
		copy(tail, l.vals[baseN:limit])
	}
	for _, ts := range ps.strag {
		if ts.Tag > r {
			break
		}
		if p, ok := l.locate(ts); ok {
			tail = append(tail, l.vals[p])
		}
	}
	var ext *baseExtract
	if baseN == l.frozen {
		ext = l.ext
	}
	return l.withPre(View{base: l.vals[:baseN:baseN], tail: tail, ext: ext})
}

// DeltaAbove splits view into (ck, delta): when this log vouches for ck
// and the view literally extends this log's prefix (its base aliases the
// backing array), the caller may ship only delta — the values above
// ck.Count — and the receiver reconstructs the view with ComposeAt.
// Returns false when the prefixes disagree or the view was not cut from
// this log; callers fall back to sending the full view.
func (l *ValueLog) DeltaAbove(view View, ck Checkpoint) ([]Value, bool) {
	idx := ck.Count - l.off
	if idx < 0 || idx > view.Len() || view.pruned != l.off || !l.Vouches(ck) {
		return nil, false
	}
	if idx > 0 {
		// The view's base must alias this log's array so that
		// view[:idx] == vals[:idx] without comparing elements.
		if len(view.base) < idx || !sameBacking(view.base, l.vals) {
			return nil, false
		}
	}
	delta := make([]Value, 0, view.Len()-idx)
	for i := idx; i < view.Len(); i++ {
		delta = append(delta, view.At(i))
	}
	return delta, true
}

// ComposeAt rebuilds a view from a checkpoint this log vouches for and the
// delta above it. The base aliases the local frozen prefix (zero-copy);
// the delta may contain values this node does not hold. Returns false
// when the checkpoint no longer matches local state (the prefix changed
// under a copy-on-write insert) or the delta is not a sorted extension —
// callers escalate to a full-view borrow.
func (l *ValueLog) ComposeAt(ck Checkpoint, delta []Value) (View, bool) {
	idx := ck.Count - l.off
	if idx < 0 || idx > l.frozen || !l.Vouches(ck) {
		return View{}, false
	}
	base := l.vals[:idx:idx]
	last := Timestamp{Tag: -1}
	if idx > 0 {
		last = base[idx-1].TS
	}
	for i := range delta {
		if !last.Less(delta[i].TS) {
			return View{}, false
		}
		last = delta[i].TS
	}
	var ext *baseExtract
	if idx == l.frozen {
		ext = l.ext
	}
	return l.withPre(View{base: base, tail: delta, ext: ext}), true
}

// NoteVouch records that node j vouched for checkpoint ck: j attests it
// holds exactly this log's first ck.Count values. When this log vouches
// for ck too, j's cursor is advanced to cover that prefix (stragglers the
// prefix absorbs are folded in), which is what makes the PruneTo
// precondition — every peer's cursor covers the prune point — reachable
// without j re-sending its history. Returns false for an unverifiable or
// foreign checkpoint. Callers that hold an active EQTracker must note
// that cursor jumps bypass OnAdd; the tracker then undercounts j, which
// can only delay EQ, never falsely satisfy it.
func (l *ValueLog) NoteVouch(j int, ck Checkpoint) bool {
	if j == l.self || j < 0 || j >= l.n || !l.Vouches(ck) {
		return false
	}
	idx := ck.Count - l.off
	if idx <= 0 {
		return true // vouches (part of) the already-pruned prefix
	}
	ps := &l.peers[j]
	if idx <= ps.prefix {
		return true
	}
	cut := l.vals[idx-1].TS
	keep := ps.strag[:0]
	for _, ts := range ps.strag {
		if cut.Less(ts) {
			keep = append(keep, ts)
		}
	}
	ps.strag = keep
	ps.prefix = idx
	l.absorb(ps)
	return true
}

// PruneTo garbage-collects the value prefix below ck, a checkpoint every
// node has vouched for (the caller establishes global agreement; this log
// re-verifies its own digest and that every peer cursor covers the
// prefix). The pruned values are folded into the cumulative per-writer
// pre-extract so extracts stay exact, the retained values move to a fresh
// backing array so the dropped prefix becomes collectable, and all
// absolute counts (SelfLen, CountLE, Frontier.Count, checkpoint digests)
// are preserved via the base offset. Must not be called while an
// EQTracker from this log is live — prune between lattice operations.
func (l *ValueLog) PruneTo(ck Checkpoint) bool {
	idx := ck.Count - l.off
	if idx <= 0 || idx > len(l.vals) || !l.Vouches(ck) {
		return false
	}
	for j := range l.peers {
		if j != l.self && l.peers[j].prefix < idx {
			return false
		}
	}
	for i := 0; i < idx; i++ {
		if w := l.vals[i].TS.Writer; w < 0 || w >= l.n {
			return false // the pre-extract cannot summarize foreign writers
		}
	}
	// Freeze through the prune point first if the local frontier lags: the
	// prefix is globally vouched, a strictly stronger stability guarantee
	// than the n−f a frontier advance needs.
	if idx > l.frozen {
		for i := l.frozen; i < idx; i++ {
			l.noteFrozen(l.vals[i])
		}
		l.frozen = idx
		if ck.Tag > l.frontier && ck.Tag != MaxTag {
			l.frontier = ck.Tag
		}
		l.publishExt()
		l.stats.Freezes++
	}
	for i := 0; i < idx; i++ {
		v := l.vals[i]
		w := v.TS.Writer
		if v.TS.Tag > l.preTags[w] {
			l.preTags[w] = v.TS.Tag
			l.prePays[w] = v.Payload
		}
	}
	l.preExt = &baseExtract{
		tags: append([]Tag(nil), l.preTags...),
		pays: append([][]byte(nil), l.prePays...),
	}
	// The floor is the last pruned value's timestamp, not ck.Tag: a
	// checkpoint names its node's frontier tag, which may exceed every
	// value in the prefix, and a value between the two — or one tying the
	// last pruned value's tag with a larger writer ID — was never pruned
	// and may still be in flight. A value at or below the floor cannot
	// be: its writer held it when it vouched, so it sorts into the
	// writer's vouched prefix, which every node's log matches.
	l.prunedTS = l.vals[idx-1].TS
	// Fresh backing arrays: the old ones stay alive only while previously
	// published views still reference them.
	nv := make([]Value, len(l.vals)-idx, headroom(len(l.vals)-idx))
	copy(nv, l.vals[idx:])
	l.vals = nv
	nd := make([]uint64, len(l.digsum)-idx, headroom(len(l.digsum)-idx))
	copy(nd, l.digsum[idx:])
	l.digsum = nd
	l.frozen -= idx
	l.off += idx
	for j := range l.peers {
		if j != l.self {
			l.peers[j].prefix -= idx
		}
	}
	l.stats.Prunes++
	l.stats.PrunedVals += int64(idx)
	return true
}

// HeapBytes estimates the log's resident size in bytes (backing arrays,
// payloads, straggler sets) — deterministic, for benchmarks.
func (l *ValueLog) HeapBytes() int {
	const valHdr = 40 // Timestamp (16) + payload slice header (24)
	b := cap(l.digsum)*8 + cap(l.vals)*valHdr
	for i := range l.vals {
		b += len(l.vals[i].Payload)
	}
	for j := range l.peers {
		b += cap(l.peers[j].strag) * 16
	}
	return b
}

// NewEQTrackerFromLog returns an incremental tracker for EQ(V^{≤r}, self)
// over a log, set up in O(n log H) via the per-peer cursors.
func NewEQTrackerFromLog(l *ValueLog, r Tag, quorum int) *EQTracker {
	t := &EQTracker{R: r, self: l.self, quorum: quorum, cnt: make([]int, l.n)}
	for j := 0; j < l.n; j++ {
		t.cnt[j] = l.CountLE(j, r)
	}
	t.cntSelf = t.cnt[l.self]
	return t
}

// digestValue hashes one value (FNV-1a over timestamp and payload, then an
// avalanche mix so additive combination distributes well). Prefix digests
// are sums of these, hence order-independent and cheap to maintain.
func digestValue(v Value) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix8 := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix8(uint64(v.TS.Tag))
	mix8(uint64(int64(v.TS.Writer)))
	for _, b := range v.Payload {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
