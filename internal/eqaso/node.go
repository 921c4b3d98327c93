// Package eqaso implements EQ-ASO (Algorithm 1 of the paper): the
// crash-tolerant atomic snapshot object based on equivalence quorums, with
// O(√k·D) worst-case and amortized O(D) time for UPDATE and SCAN given
// n > 2f.
//
// Two deliberate deviations from the pseudocode, both required for
// liveness and documented in DESIGN.md:
//
//  1. The "writeTag" handler acknowledges every request; only the maxTag
//     adoption and the "echoTag" broadcast are guarded by tag > maxTag.
//     (Acknowledging only larger tags would block a writeTag quorum wait
//     forever once the tag is stale.)
//
//  2. The borrow phase (line 29) accepts a good view with any tag ≥ r and
//     additionally broadcasts a "borrowReq", answered by peers with an
//     explicit "goodView". This keeps LatticeRenewal live even when the
//     original goodLA broadcast was truncated by the sender's crash. Any
//     good view with tag ≥ r preserves conditions (A1)-(A4): good views
//     are pairwise comparable (Lemma 2), and larger views only grow bases.
//
// Local state lives in a core.ValueLog (one shared timestamp-sorted array
// with per-peer cursors) rather than n separate value maps, which makes
// the per-operation cost independent of the history length: EQ tracker
// setup is O(n log H), good views are zero-copy prefixes of the frozen
// log, and borrow replies ship only the delta above the requester's
// stable frontier (see DESIGN.md §8).
package eqaso

import (
	"sort"

	"mpsnap/internal/core"
	"mpsnap/internal/rt"
	"mpsnap/internal/wal"
)

// Stats counts a node's operations and lattice activity.
type Stats struct {
	Updates       int64 // values written (a k-batch counts k)
	Batches       int64 // update round sequences (single updates count 1)
	Scans         int64
	LatticeOps    int64
	DirectViews   int64
	IndirectViews int64

	// Borrow-protocol counters (see the borrowReq gating in node.go).
	BorrowsSuppressed   int64 // borrowReq received but not in the sample → no reply
	BorrowsEscalated    int64 // borrow attempts rebroadcast to everyone
	BorrowDeltaReplies  int64 // goodViewDelta replies sent (frontier matched)
	BorrowFullReplies   int64 // full goodView replies sent
	BorrowPendingServed int64 // replies sent late, once a view became known
	BorrowDeltaRejects  int64 // received deltas whose checkpoint no longer matched

	// Vouch and garbage-collection counters (nodes with GC or a WAL), then
	// crash-recovery counters (WAL mode only).
	VouchesSent        int64 // checkpoint vouches broadcast after a frontier advance
	LogPrunes          int64 // value-log prefixes garbage-collected
	RejoinDeltaReplies int64 // rejoinReq answered with a delta above the base
	RejoinFullReplies  int64 // rejoinReq answered with a full standalone view
	Rejoins            int64 // crash-recovery rejoins performed by this node
}

type readState struct {
	count int
	max   core.Tag
}

// pendingBorrow is a borrowReq this node could not answer yet: it is
// served as soon as a covering good view becomes known (the requester was
// told to wait with a borrowNak).
type pendingBorrow struct {
	tag  core.Tag
	base core.Checkpoint
}

// borrowWait is the client thread's in-flight borrow, visible to the
// server thread so a borrowNak or a stale delta can trigger the one-time
// escalation from the sampled request to a full broadcast.
type borrowWait struct {
	tag       core.Tag
	base      core.Checkpoint
	escalated bool
}

// Node is one EQ-ASO node: the server-thread state of Algorithm 1 plus the
// client-thread operations Update and Scan. Install it as the node's
// message handler and invoke operations from the node's client thread.
type Node struct {
	rt     rt.Runtime
	id     int
	n      int
	quorum int // n - f

	// Algorithm 1 local variables. log holds V[0..n-1] (the per-peer value
	// sets) as one shared value log.
	log     *core.ValueLog
	maxTag  core.Tag                       // largest tag seen via writeTag/echoTag
	borrow  map[core.Tag]map[int]core.View // D, kept per (tag, sender)
	ownGood map[core.Tag]core.View         // this node's good-lattice views

	// In-flight quorum calls and the active EQ wait.
	nextReq   int64
	readAcks  map[int64]*readState
	writeAcks map[int64]int
	wait      *core.EQTracker

	// Borrow protocol state.
	pending   map[int]pendingBorrow // requester id → unanswered borrowReq
	curBorrow *borrowWait

	// Vouch, GC and crash-recovery state. wal, when set, is the durability
	// sink: own values are synced before they are disseminated, frontier
	// checkpoints before they are vouched, prunes before they execute.
	// vouched[j] is the largest checkpoint node j has vouched AND this log
	// can verify; rawVouch[j] is the largest vouch received from j
	// regardless of local verifiability (re-checked when the local
	// frontier catches up); gc enables pruning below the global minimum.
	// A node with neither gc nor a WAL keeps its full history and sends
	// no vouches.
	wal      *wal.Writer
	gc       bool
	vouched  []core.Checkpoint
	rawVouch []core.Checkpoint

	stats Stats

	// Operation instrumentation (see obs.go); owned by the client thread.
	obs   rt.Observer
	opSeq int64
	curOp opCtx

	// OnGoodLattice, if set, observes every good lattice operation
	// completed by this node (used by invariant-checking tests and by
	// the SSO's passive view adoption).
	OnGoodLattice func(tag core.Tag, view core.View)
	// OnGoodLAView, if set, observes every good view learned from a peer
	// ("goodLA" FIFO-derived views and explicit "goodView" replies).
	OnGoodLAView func(tag core.Tag, from int, view core.View)
}

// New creates the EQ-ASO node for the given runtime. The caller must
// register it as the node's message handler. The node keeps its full
// value history: callers that read whole learned views (gla's lattice
// agreement) rely on it. The engine registry's constructor turns GC on
// (see engine.go), and AttachWAL decides for durable nodes.
func New(r rt.Runtime) *Node {
	n := r.N()
	nd := &Node{
		rt:        r,
		id:        r.ID(),
		n:         n,
		quorum:    n - r.F(),
		log:       core.NewValueLog(n, r.ID()),
		borrow:    make(map[core.Tag]map[int]core.View),
		ownGood:   make(map[core.Tag]core.View),
		readAcks:  make(map[int64]*readState),
		writeAcks: make(map[int64]int),
		pending:   make(map[int]pendingBorrow),
		vouched:   make([]core.Checkpoint, n),
		rawVouch:  make([]core.Checkpoint, n),
	}
	return nd
}

// AttachWAL makes the node durable: every value admitted to V[self] is
// appended to w (own values synced before dissemination), frontier
// checkpoints are synced and then vouched to peers, and — when gc is set
// — the value log is pruned below the globally-vouched checkpoint. Must
// be called before the node is installed as a message handler.
func (nd *Node) AttachWAL(w *wal.Writer, gc bool) {
	nd.wal = w
	nd.gc = gc
}

// Stats returns a copy of the node's counters.
func (nd *Node) Stats() Stats {
	var s Stats
	nd.rt.Atomic(func() { s = nd.stats })
	return s
}

// MemoryStats reports the node's state sizes: the number of values
// learned, the number held physically — with GC on, the active window
// above the globally vouched checkpoint; without it, the whole history —
// and the good-view caches, which pruneBelow keeps proportional to
// in-flight activity rather than to the execution's length.
type MemoryStats struct {
	// Values is the size of V[id] (every value ever learned, pruned ones
	// included).
	Values int
	// Retained is the number of values held physically; with GC enabled
	// it tracks the active window instead of the whole history.
	Retained int
	// Pruned is the number of values garbage-collected below the
	// globally-vouched checkpoint.
	Pruned int
	// LogBytes estimates the value log's resident size.
	LogBytes int
	// Frozen is the stable-frontier prefix length: values in zero-copy,
	// immutable log positions.
	Frozen int
	// BorrowTags / OwnGoodTags count cached good views.
	BorrowTags, OwnGoodTags int
}

// Memory returns current state sizes (for tests and capacity planning).
func (nd *Node) Memory() MemoryStats {
	var m MemoryStats
	nd.rt.Atomic(func() {
		m.Values = nd.log.SelfLen()
		m.Retained = nd.log.RetainedLen()
		m.Pruned = nd.log.PrunedCount()
		m.LogBytes = nd.log.HeapBytes()
		m.Frozen = nd.log.Frontier().Count
		m.BorrowTags = len(nd.borrow)
		m.OwnGoodTags = len(nd.ownGood)
	})
	return m
}

// LogStats returns the value log's structural counters (for tests and
// benchmarks).
func (nd *Node) LogStats() core.LogStats {
	var s core.LogStats
	nd.rt.Atomic(func() { s = nd.log.Stats() })
	return s
}

// MaxTag returns the node's current maxTag (for tests and tooling).
func (nd *Node) MaxTag() core.Tag {
	var t core.Tag
	nd.rt.Atomic(func() { t = nd.maxTag })
	return t
}

// LocalView returns a snapshot of everything the node has received
// (V[id]); the SSO built on this package serves scans from it.
func (nd *Node) LocalView() core.View {
	var v core.View
	nd.rt.Atomic(func() { v = nd.log.AllView() })
	return v
}

// HandleMessage implements rt.Handler (the event handlers of Algorithm 1,
// lines 40-49). The runtime guarantees atomic execution.
func (nd *Node) HandleMessage(src int, m rt.Message) {
	switch msg := m.(type) {
	case MsgValue:
		nd.addValue(src, msg.Val)
	case MsgReadTag:
		nd.rt.Send(src, MsgReadAck{ReqID: msg.ReqID, Tag: nd.maxTag})
	case MsgReadAck:
		if st, ok := nd.readAcks[msg.ReqID]; ok {
			st.count++
			if msg.Tag > st.max {
				st.max = msg.Tag
			}
		}
	case MsgWriteTag:
		if msg.Tag > nd.maxTag {
			nd.maxTag = msg.Tag
			nd.rt.Broadcast(MsgEchoTag{Tag: msg.Tag})
		}
		nd.rt.Send(src, MsgWriteAck{ReqID: msg.ReqID, Tag: msg.Tag})
	case MsgWriteAck:
		if _, ok := nd.writeAcks[msg.ReqID]; ok {
			nd.writeAcks[msg.ReqID]++
		}
	case MsgEchoTag:
		if msg.Tag > nd.maxTag {
			nd.maxTag = msg.Tag
		}
	case MsgGoodLA:
		// By FIFO, V[src]^{≤Tag} now equals src's equivalence set.
		view := nd.log.PeerViewLE(src, msg.Tag)
		nd.addBorrow(msg.Tag, src, view)
		if nd.OnGoodLAView != nil {
			nd.OnGoodLAView(msg.Tag, src, view)
		}
		nd.servePending()
	case MsgBorrowReq:
		if msg.Attempt == 0 && !nd.inSample(src, msg.Tag) {
			// Reply amplification gate: on the first attempt only f+1
			// deterministically sampled responders answer; the requester
			// escalates (attempt 1, everyone answers) if a sampled
			// responder naks.
			nd.stats.BorrowsSuppressed++
			return
		}
		nd.serveBorrow(src, msg.Tag, msg.Base)
	case MsgBorrowNak:
		nd.maybeEscalate(msg.Tag)
	case MsgGoodView:
		nd.adoptBorrowed(msg.Tag, src, msg.View)
	case MsgGoodViewDelta:
		if view, ok := nd.log.ComposeAt(msg.Base, msg.Delta); ok {
			nd.adoptBorrowed(msg.Tag, src, view)
		} else {
			// Our frozen prefix changed under the in-flight borrow (a
			// straggler forced a copy-on-write) — ask for full views.
			nd.stats.BorrowDeltaRejects++
			nd.maybeEscalate(msg.Tag)
		}
	case MsgCkptVouch:
		nd.noteVouch(src, msg.Ck)
	case MsgRejoinReq:
		// src recovered with durable state through Base: that prefix
		// survived the crash, so credit src's cursor with it — this also
		// repairs goodLA FIFO reconstruction for values src received but
		// whose broadcasts were cut short pre-crash.
		nd.noteVouch(src, msg.Base)
		all := nd.log.AllView()
		if delta, ok := nd.log.DeltaAbove(all, msg.Base); ok {
			nd.stats.RejoinDeltaReplies++
			nd.rt.Send(src, MsgRejoinAck{Base: msg.Base, Vals: delta})
		} else {
			nd.stats.RejoinFullReplies++
			nd.rt.Send(src, MsgRejoinAck{Full: true, Vals: all.Standalone().Values()})
		}
	case MsgRejoinAck:
		if !msg.Full {
			// src vouched our recovered base implicitly by replying with a
			// delta above it.
			nd.log.NoteVouch(src, msg.Base)
		}
		for _, v := range msg.Vals {
			nd.addValue(src, v)
		}
	}
}

// addValue admits a value received from src (the "value" handler, line 40
// of Algorithm 1): into the log, the active EQ wait, the WAL, and — on
// first receipt — back out to everyone (reliable broadcast). The log is
// the dedup set: a value is forwarded exactly when it is new to V[self].
// Own values are skipped (the writer broadcasts them itself), and so are
// values at or below the prune point, which the log drops because every
// node already held them.
func (nd *Node) addValue(src int, v core.Value) {
	newToJ, newToSelf := nd.log.Add(src, v)
	if nd.wait != nil {
		nd.wait.OnAdd(src, v, newToJ, newToSelf)
	}
	if !newToSelf {
		return
	}
	if nd.wal != nil {
		nd.wal.AppendValue(src, v)
	}
	if v.TS.Writer != nd.id {
		nd.rt.Broadcast(MsgValue{Val: v})
	}
}

// vouchFrontier checkpoints the current frontier and vouches it to all
// peers. Called (atomically) after a good lattice operation advanced the
// frontier, in the same critical section as the goodLA broadcast, so the
// vouch rides the same socket writes. With a WAL the checkpoint is synced
// BEFORE the vouch broadcast, so a peer can only GC below a frontier this
// node will still hold after any crash; without one, the node is
// crash-stop and a vouch it can no longer honour is never needed (see
// DESIGN.md §9). The node's own vouch is recorded via the self-delivered
// broadcast.
func (nd *Node) vouchFrontier() {
	if nd.wal == nil && !nd.gc {
		return
	}
	ck := nd.log.Frontier()
	if ck.Count <= nd.vouched[nd.id].Count {
		return
	}
	if nd.wal != nil {
		nd.wal.AppendCheckpoint(ck)
		if nd.wal.Sync() != nil {
			return
		}
	}
	nd.stats.VouchesSent++
	nd.rt.Broadcast(MsgCkptVouch{Ck: ck})
	// The frontier just advanced: vouches that outran this log when they
	// arrived may verify now. Without this re-check a peer's vouch received
	// while this node lagged would stay buffered until the peer's NEXT good
	// lattice op, stalling GC indefinitely.
	nd.recheckVouches()
	nd.maybeGC()
}

// noteVouch records j's durable checkpoint: the raw vouch is always
// buffered (latest per peer), and when this log vouches the same prefix
// it advances j's cursor, raises vouched[j], and garbage-collects if a
// new global floor emerged. A vouch this log cannot verify yet — the
// local frontier lags j's — stays in rawVouch and is re-examined by
// recheckVouches once the frontier advances.
func (nd *Node) noteVouch(j int, ck core.Checkpoint) {
	if ck.Count > nd.rawVouch[j].Count {
		nd.rawVouch[j] = ck
	}
	nd.log.NoteVouch(j, ck)
	if nd.log.Vouches(ck) && ck.Count > nd.vouched[j].Count {
		nd.vouched[j] = ck
	}
	nd.maybeGC()
}

// recheckVouches re-applies buffered raw vouches that were not verifiable
// when they arrived. Called after the local frontier advances.
func (nd *Node) recheckVouches() {
	for j, ck := range nd.rawVouch {
		if j == nd.id || ck.Count <= nd.vouched[j].Count {
			continue
		}
		nd.log.NoteVouch(j, ck)
		if nd.log.Vouches(ck) {
			nd.vouched[j] = ck
		}
	}
}

// maybeGC prunes the value log below the smallest checkpoint every node
// has vouched. With a WAL the prune is logged and synced first so replay
// prunes at the same point and recovered digests match live peers. Never
// runs while an EQ wait is active (the tracker caches absolute counts).
func (nd *Node) maybeGC() {
	if !nd.gc || nd.wait != nil {
		return
	}
	floor := nd.vouched[0]
	for _, ck := range nd.vouched[1:] {
		if ck.Count < floor.Count {
			floor = ck
		}
	}
	if floor.Count <= nd.log.PrunedCount() || !nd.log.Vouches(floor) {
		return
	}
	if nd.wal != nil {
		nd.wal.AppendPrune(floor)
		if nd.wal.Sync() != nil {
			return
		}
	}
	if nd.log.PruneTo(floor) {
		nd.stats.LogPrunes++
	}
}

// adoptBorrowed records a good view received from a peer and serves any
// borrowReq this node had parked (it now holds a view to answer with).
func (nd *Node) adoptBorrowed(tag core.Tag, from int, view core.View) {
	nd.addBorrow(tag, from, view)
	if nd.OnGoodLAView != nil {
		nd.OnGoodLAView(tag, from, view)
	}
	nd.servePending()
}

func (nd *Node) addBorrow(tag core.Tag, from int, view core.View) {
	byNode := nd.borrow[tag]
	if byNode == nil {
		byNode = make(map[int]core.View)
		nd.borrow[tag] = byNode
	}
	byNode[from] = view
}

// inSample reports whether this node is one of the f+1 responders sampled
// for src's borrowReq at the given tag. The sample is a deterministic
// function of (tag, src) — a rotation of the ring starting at a
// tag-and-requester-derived offset — so the requester needs no extra
// coordination and repeated borrows at growing tags spread the load.
func (nd *Node) inSample(src int, tag core.Tag) bool {
	k := nd.n - nd.quorum + 1 // f+1: at least one sampled node is correct
	h := uint64(tag)*0x9e3779b97f4a7c15 + uint64(src)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	start := int(h % uint64(nd.n))
	for i, c := 0, 0; i < nd.n && c < k; i++ {
		id := (start + i) % nd.n
		if id == src {
			continue // the requester answers itself for free
		}
		if id == nd.id {
			return true
		}
		c++
	}
	return false
}

// serveBorrow answers a borrowReq: with the delta above the requester's
// advertised frontier when both sides agree on that prefix, with a full
// view otherwise, or — lacking any view with tag ≥ r — with a borrowNak
// now and a real reply later (servePending) if a view arrives.
func (nd *Node) serveBorrow(src int, r core.Tag, base core.Checkpoint) {
	if tag, view, ok := nd.bestViewAtLeast(r); ok {
		nd.sendView(src, tag, view, base)
		return
	}
	nd.pending[src] = pendingBorrow{tag: r, base: base}
	nd.rt.Send(src, MsgBorrowNak{Tag: r})
}

func (nd *Node) sendView(src int, tag core.Tag, view core.View, base core.Checkpoint) {
	if delta, ok := nd.log.DeltaAbove(view, base); ok {
		nd.stats.BorrowDeltaReplies++
		nd.rt.Send(src, MsgGoodViewDelta{Tag: tag, Base: base, Delta: delta})
		return
	}
	nd.stats.BorrowFullReplies++
	// Full views must not depend on this node's pruned-prefix summary
	// (the wire codec flattens views): materialize it first.
	nd.rt.Send(src, MsgGoodView{Tag: tag, View: view.Standalone()})
}

// servePending answers parked borrowReqs that a newly learned view can now
// satisfy. Iteration is in requester order for determinism.
func (nd *Node) servePending() {
	if len(nd.pending) == 0 {
		return
	}
	reqs := make([]int, 0, len(nd.pending))
	for src := range nd.pending {
		reqs = append(reqs, src)
	}
	sort.Ints(reqs)
	for _, src := range reqs {
		pb := nd.pending[src]
		if tag, view, ok := nd.bestViewAtLeast(pb.tag); ok {
			delete(nd.pending, src)
			nd.stats.BorrowPendingServed++
			nd.sendView(src, tag, view, pb.base)
		}
	}
}

// maybeEscalate rebroadcasts the in-flight borrow to every node, once: a
// sampled responder had nothing to offer (borrowNak) or a delta reply went
// stale. Escalation restores the pre-gating behavior, so liveness matches
// the original always-broadcast protocol.
func (nd *Node) maybeEscalate(tag core.Tag) {
	bw := nd.curBorrow
	if bw == nil || bw.escalated || tag != bw.tag {
		return
	}
	bw.escalated = true
	nd.stats.BorrowsEscalated++
	nd.rt.Broadcast(MsgBorrowReq{Tag: bw.tag, Attempt: 1, Base: bw.base})
}

// bestViewAtLeast returns the smallest-tagged good view this node knows
// with tag ≥ r (its own good views or borrowed ones). Deterministic.
func (nd *Node) bestViewAtLeast(r core.Tag) (core.Tag, core.View, bool) {
	bestTag := core.Tag(-1)
	var bestView core.View
	consider := func(tag core.Tag, view core.View) {
		if tag >= r && (bestTag < 0 || tag < bestTag) {
			bestTag, bestView = tag, view
		}
	}
	for _, tag := range sortedTags(nd.ownGood) {
		consider(tag, nd.ownGood[tag])
	}
	for tag, byNode := range nd.borrow {
		if tag < r {
			continue
		}
		nodes := make([]int, 0, len(byNode))
		for j := range byNode {
			nodes = append(nodes, j)
		}
		sort.Ints(nodes)
		consider(tag, byNode[nodes[0]])
	}
	if bestTag < 0 {
		return 0, core.View{}, false
	}
	return bestTag, bestView, true
}

func sortedTags(m map[core.Tag]core.View) []core.Tag {
	tags := make([]core.Tag, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

// pruneBelow discards borrow/ownGood entries with tag < r; every future
// need of this node is for tags ≥ r (tags a node works with never
// decrease), so the memory stays proportional to in-flight activity. The
// largest view held is always retained so the node can keep answering
// peers' borrowReq messages.
func (nd *Node) pruneBelow(r core.Tag) {
	maxHeld := core.Tag(-1)
	for tag := range nd.borrow {
		if tag > maxHeld {
			maxHeld = tag
		}
	}
	for tag := range nd.ownGood {
		if tag > maxHeld {
			maxHeld = tag
		}
	}
	if maxHeld < r {
		r = maxHeld
	}
	for tag := range nd.borrow {
		if tag < r {
			delete(nd.borrow, tag)
		}
	}
	for tag := range nd.ownGood {
		if tag < r {
			delete(nd.ownGood, tag)
		}
	}
}
