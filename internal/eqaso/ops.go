package eqaso

import (
	"mpsnap/internal/core"
	"mpsnap/internal/rt"
)

// readTag implements readTag() (lines 35-37): read the largest maxTag from
// at least n-f nodes.
func (nd *Node) readTag() (core.Tag, error) {
	nd.phase("readTag")
	var req int64
	var st *readState
	nd.rt.Atomic(func() {
		nd.nextReq++
		req = nd.nextReq
		// Seed with the local maxTag: the quorum maximum can only raise it,
		// and a node recovering from its WAL must never pick a timestamp at
		// or below one it already wrote durably.
		st = &readState{max: nd.maxTag}
		nd.readAcks[req] = st
	})
	nd.rt.Broadcast(MsgReadTag{ReqID: req})
	var r core.Tag
	err := nd.rt.WaitUntilThen("readTag quorum",
		func() bool { return st.count >= nd.quorum },
		func() {
			r = st.max
			delete(nd.readAcks, req)
		})
	return r, err
}

// writeTag implements writeTag(tag) (lines 38-39): write the tag to at
// least n-f nodes.
func (nd *Node) writeTag(tag core.Tag) error {
	nd.phase("writeTag")
	var req int64
	nd.rt.Atomic(func() {
		nd.nextReq++
		req = nd.nextReq
		nd.writeAcks[req] = 0
	})
	nd.rt.Broadcast(MsgWriteTag{ReqID: req, Tag: tag})
	return nd.rt.WaitUntilThen("writeTag quorum",
		func() bool { return nd.writeAcks[req] >= nd.quorum },
		func() { delete(nd.writeAcks, req) })
}

// lattice implements Lattice(r) (lines 14-21): write the tag, wait for the
// equivalence quorum predicate EQ(V^{≤r}, i), and atomically decide whether
// the operation is good (maxTag ≤ r).
func (nd *Node) lattice(r core.Tag) (good bool, view core.View, err error) {
	nd.rt.Atomic(func() { nd.stats.LatticeOps++ })
	if err := nd.writeTag(r); err != nil {
		return false, core.View{}, err
	}
	var tracker *core.EQTracker
	nd.rt.Atomic(func() {
		// This node will never need a view with tag < r again (its tags
		// are nondecreasing), so keep the good-view caches bounded by
		// in-flight activity.
		nd.pruneBelow(r)
		tracker = core.NewEQTrackerFromLog(nd.log, r, nd.quorum)
		nd.wait = tracker
	})
	nd.phase("eqWait")
	err = nd.rt.WaitUntilThen("EQ predicate",
		tracker.Satisfied,
		func() {
			// Lines 16-21, executed atomically.
			nd.wait = nil
			if nd.maxTag <= r {
				good = true
				// The prefix ≤ r is an equivalence set held by n−f
				// nodes: freeze it first, so the view below is a
				// zero-copy alias of the frozen log.
				nd.log.AdvanceFrontier(r)
				view = nd.log.ViewLE(r)
				nd.ownGood[r] = view
				if nd.OnGoodLattice != nil {
					nd.OnGoodLattice(r, view)
				}
				nd.rt.Broadcast(MsgGoodLA{Tag: r})
				nd.vouchFrontier()
				nd.servePending()
			}
		})
	if err != nil {
		return false, core.View{}, err
	}
	if good {
		nd.phase("eqGood")
	} else {
		nd.phase("eqNotGood")
	}
	return good, view, nil
}

// latticeRenewal implements LatticeRenewal(r) (lines 22-30): at most three
// lattice operations; a good one yields a direct view, otherwise the node
// borrows an indirect view from a peer's good lattice operation.
func (nd *Node) latticeRenewal(r core.Tag) (core.View, error) {
	for phase := 1; phase <= 3; phase++ {
		nd.phase(renewalPhases[phase-1])
		good, view, err := nd.lattice(r)
		if err != nil {
			return core.View{}, err
		}
		if good {
			nd.rt.Atomic(func() { nd.stats.DirectViews++ })
			return view, nil // direct view
		}
		if phase == 3 {
			break
		}
		nd.rt.Atomic(func() { r = nd.maxTag })
	}
	// Borrow an indirect view for tag ≥ r (see the package comment for
	// why ≥ rather than = preserves correctness and improves liveness).
	// The request advertises the stable frontier so holders can reply
	// with a delta, and is answered by a sampled subset of nodes first
	// (escalated to everyone on a borrowNak — see maybeEscalate).
	nd.phase("borrow")
	var req MsgBorrowReq
	nd.rt.Atomic(func() {
		nd.pruneBelow(r)
		base := nd.log.Frontier()
		nd.curBorrow = &borrowWait{tag: r, base: base}
		req = MsgBorrowReq{Tag: r, Attempt: 0, Base: base}
	})
	nd.rt.Broadcast(req)
	var view core.View
	err := nd.rt.WaitUntilThen("borrow goodLA view",
		func() bool { _, _, ok := nd.bestViewAtLeast(r); return ok },
		func() {
			_, view, _ = nd.bestViewAtLeast(r)
			nd.curBorrow = nil
			nd.stats.IndirectViews++
		})
	return view, err
}

// Update implements UPDATE(v) (lines 4-10): obtain a fresh timestamp,
// disseminate the value, run the phase-0 lattice operation, then a
// LatticeRenewal whose view is discarded.
func (nd *Node) Update(payload []byte) error {
	_, _, err := nd.UpdateWithView(payload)
	return err
}

// UpdateWithView is Update, additionally returning the view obtained by
// the operation's final LatticeRenewal and the written value's timestamp.
// EQ-ASO itself discards that view (line 9's comment); the SSO built on
// this package stores it.
func (nd *Node) UpdateWithView(payload []byte) (core.View, core.Timestamp, error) {
	view, tss, err := nd.UpdateBatchWithView([][]byte{payload})
	var ts core.Timestamp
	if len(tss) > 0 {
		ts = tss[0]
	}
	return view, ts, err
}

// UpdateBatch writes the payloads, in order, as successive values of this
// node's segment with ONE protocol update's round sequence. This is the
// amortization lever behind the paper's O(D) amortized bound: k pending
// writes share a single readTag, phase-0 lattice operation, and
// LatticeRenewal, so the whole batch costs what one UPDATE costs. The
// service layer (internal/svc) uses it to coalesce concurrent clients.
func (nd *Node) UpdateBatch(payloads [][]byte) error {
	_, _, err := nd.UpdateBatchWithView(payloads)
	return err
}

// UpdateBatchWithView is UpdateBatch, additionally returning the final
// renewal's view and the written timestamps (in payload order). With one
// payload it produces exactly the message sequence of UpdateWithView.
//
// The batch takes timestamps r+1..r+k: all values are disseminated before
// the phase-0 lattice operation, and the renewal runs at max(r+k, maxTag),
// which writeTags ≥ r+k to a quorum — so any later readTag (whose quorum
// intersects it) returns ≥ r+k and per-writer timestamps stay strictly
// increasing, exactly as in the single-value protocol.
func (nd *Node) UpdateBatchWithView(payloads [][]byte) (view core.View, tss []core.Timestamp, err error) {
	if nd.rt.Crashed() {
		return core.View{}, nil, rt.ErrCrashed
	}
	if len(payloads) == 0 {
		return core.View{}, nil, nil
	}
	c := nd.opStart("update")
	defer func() { nd.opEnd(c, err) }()
	k := core.Tag(len(payloads))
	nd.rt.Atomic(func() {
		nd.stats.Updates += int64(k)
		nd.stats.Batches++
	})
	r, err := nd.readTag()
	if err != nil {
		return core.View{}, nil, err
	}
	tss = make([]core.Timestamp, len(payloads))
	for i := range payloads {
		tss[i] = core.Timestamp{Tag: r + 1 + core.Tag(i), Writer: nd.id}
	}
	var walErr error
	if nd.wal != nil {
		// Durable-before-disseminate: admit the batch to V[self] and sync
		// it BEFORE any peer can observe a value, so no value a survivor
		// holds can be lost by this node's crash. Without a WAL the values
		// enter the log through the self-delivered broadcast below.
		nd.rt.Atomic(func() {
			for i := range payloads {
				v := core.Value{TS: tss[i], Payload: payloads[i]}
				if nd.log.AddSelf(v) {
					nd.wal.AppendValue(nd.id, v)
				}
			}
			walErr = nd.wal.Sync()
		})
	}
	if walErr != nil {
		// The batch is not durable: disseminating it would let peers act on
		// (and GC behind) values this node cannot reconstruct after a crash.
		// Writer errors latch, so every subsequent update fails here too —
		// the node is write-fenced until the operator intervenes.
		return core.View{}, nil, walErr
	}
	nd.phase("disseminate")
	for i, payload := range payloads {
		nd.rt.Broadcast(MsgValue{Val: core.Value{TS: tss[i], Payload: payload}})
	}
	if _, _, err = nd.lattice(r); err != nil { // phase 0
		return core.View{}, tss, err
	}
	var r2 core.Tag
	nd.rt.Atomic(func() {
		r2 = r + k
		if nd.maxTag > r2 {
			r2 = nd.maxTag
		}
	})
	view, err = nd.latticeRenewal(r2)
	return view, tss, err
}

// RefreshView runs one readTag + LatticeRenewal and returns the obtained
// view (used by the SSO to catch up until its own value is visible).
func (nd *Node) RefreshView() (core.View, error) {
	r, err := nd.readTag()
	if err != nil {
		return core.View{}, err
	}
	return nd.latticeRenewal(r)
}

// Scan implements SCAN() (lines 11-13). The returned vector has one entry
// per node; nil marks a segment never written (⊥). It delegates to
// ScanView, which holds the protocol logic.
func (nd *Node) Scan() ([][]byte, error) {
	view, err := nd.ScanView()
	if err != nil {
		return nil, err
	}
	return view.Extract(nd.n), nil
}

// ScanView is Scan but returns the underlying view (used by tests and by
// the lattice-agreement adapter).
func (nd *Node) ScanView() (view core.View, err error) {
	if nd.rt.Crashed() {
		return core.View{}, rt.ErrCrashed
	}
	c := nd.opStart("scan")
	defer func() { nd.opEnd(c, err) }()
	nd.rt.Atomic(func() { nd.stats.Scans++ })
	r, err := nd.readTag()
	if err != nil {
		return core.View{}, err
	}
	return nd.latticeRenewal(r)
}
