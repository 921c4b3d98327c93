package eqaso

import (
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/wal"
)

// EQ-ASO registers as the default engine: linearizable, crash-tolerant
// (n > 2f), WAL-durable and recoverable. Registry-built nodes prune their
// value log below the globally vouched checkpoint, WAL or not: a SCAN
// needs only each writer's latest value, which the pruned prefix's
// per-writer extract keeps. AttachWAL still decides for durable nodes.
func init() {
	engine.Register(engine.Info{
		Name: "eqaso",
		Doc:  "equivalence-quorum atomic snapshot (O(√k·D) worst, O(D) amortized; WAL recovery)",
		New: func(r rt.Runtime) engine.Engine {
			nd := New(r)
			nd.gc = true
			return nd
		},
		Recover: func(r rt.Runtime, st *wal.State, w *wal.Writer, gc bool) engine.Engine {
			return Recover(r, st, w, gc)
		},
	})
}
