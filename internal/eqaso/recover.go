package eqaso

import (
	"mpsnap/internal/core"
	"mpsnap/internal/rt"
	"mpsnap/internal/wal"
)

// Recover builds an EQ-ASO node from a replayed WAL instead of an empty
// log. The recovered node resumes with:
//
//   - the value log exactly as of the last synced WAL record (values,
//     frontier checkpoints, and prunes replayed in order), so its digests
//     match what live peers computed for the same prefixes;
//   - maxTag at least the largest tag it ever observed durably, so the
//     next readTag can never hand out a timestamp the node already wrote
//     (per-writer timestamps stay strictly increasing across the crash);
//   - the recovered log as its forwarding dedup set, so re-receiving
//     pre-crash values does not trigger a re-forward of history.
//
// The caller installs the node as the message handler (exactly as with
// New) and then calls Rejoin from the client thread.
func Recover(r rt.Runtime, st *wal.State, w *wal.Writer, gc bool) *Node {
	nd := New(r)
	nd.log = st.Log
	nd.maxTag = st.MaxTag
	if st.OwnTag > nd.maxTag {
		nd.maxTag = st.OwnTag
	}
	// The frontier was WAL-synced before any vouch for it was sent, so the
	// node still stands behind it.
	nd.vouched[nd.id] = st.Frontier
	nd.AttachWAL(w, gc)
	return nd
}

// Rejoin re-enters the protocol after Recover: it re-disseminates the
// retained values above the recovered frontier (their pre-crash broadcasts
// may have reached only a prefix of the nodes) and asks all peers for what
// it missed while down. Peers answer MsgRejoinReq with a delta above the
// advertised base when their log vouches it, or a full standalone view
// otherwise; the request also repairs their cursor for this node. Rejoin
// only sends — the acks are absorbed by the message handler — so the
// client thread can start operating immediately after it returns.
func (nd *Node) Rejoin() {
	var vals []core.Value
	var req MsgRejoinReq
	nd.rt.Atomic(func() {
		nd.stats.Rejoins++
		base := nd.log.Frontier()
		if delta, ok := nd.log.DeltaAbove(nd.log.AllView(), base); ok {
			vals = delta
		} else {
			vals = nd.log.AllView().Standalone().Values()
		}
		req = MsgRejoinReq{Base: base}
	})
	for _, v := range vals {
		nd.rt.Broadcast(MsgValue{Val: v})
	}
	nd.rt.Broadcast(req)
}
