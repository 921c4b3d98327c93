// Package mpsnap implements fault-tolerant snapshot objects for
// asynchronous message-passing systems, reproducing "Fault-tolerant
// Snapshot Objects in Message Passing Systems" (Garg, Kumar, Tseng, Zheng
// — IPDPS 2022).
//
// The atomic snapshot object (ASO) is partitioned into n segments, one per
// node: node i updates segment i and can atomically scan all segments. The
// package provides:
//
//   - EQ-ASO, the paper's crash-tolerant ASO based on equivalence quorums
//     (O(√k·D) worst-case, amortized O(D) operations, n > 2f);
//   - a Byzantine-tolerant ASO integrating Bracha reliable broadcast
//     (n > 3f);
//   - sequentially consistent snapshot objects (SSO) whose scans complete
//     locally with zero communication;
//   - the Table I baselines (Delporte et al. direct ASO, store-collect,
//     stacked registers, LA-transform);
//   - lattice agreement (early-stopping EQ-LA and a pull-based baseline);
//   - a deterministic virtual-time simulator with crash/Byzantine
//     adversaries, and a history checker for the paper's tight
//     linearizability conditions (A1)-(A4).
//
// # Quick start
//
//	cluster := mpsnap.NewSimCluster(mpsnap.Config{N: 5, F: 2, Algorithm: mpsnap.EQASO})
//	cluster.Client(0, func(c *mpsnap.Client) {
//		_ = c.Update([]byte("hello"))
//		snap, _ := c.Scan()
//		fmt.Println(snap)
//	})
//	_ = cluster.Run()
//
// Applications (linearizable CRDTs, asset transfer, update-query state
// machines) live in the crdt, assettransfer, and statemachine
// subpackages.
package mpsnap

import (
	"fmt"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/rt"
)

// Algorithm selects a snapshot object implementation.
type Algorithm string

// Available algorithms.
const (
	// EQASO is the paper's crash-tolerant atomic snapshot (Algorithm 1).
	EQASO Algorithm = "eqaso"
	// ByzASO is the Byzantine-tolerant atomic snapshot (requires n > 3f).
	ByzASO Algorithm = "byzaso"
	// SSOFast is the sequentially consistent snapshot with local scans.
	SSOFast Algorithm = "sso"
	// SSOByz is the Byzantine sequentially consistent snapshot (n > 3f).
	SSOByz Algorithm = "sso-byz"
	// Delporte is the direct baseline of reference [19]: O(D) update,
	// O(n·D) scan.
	Delporte Algorithm = "delporte"
	// StoreCollect is the store-collect baseline of reference [12].
	StoreCollect Algorithm = "storecollect"
	// Stacked is the ABD-register + shared-memory-snapshot stacking
	// construction the paper's introduction argues against.
	Stacked Algorithm = "stacked"
	// LAASO is the lattice-agreement-transform baseline ([41],[42]+[11]).
	LAASO Algorithm = "laaso"
	// ACR is the amortized constant-round atomic snapshot: scans hit a
	// committed-snapshot cache and complete in one collect round when no
	// update raced the previous commit (after arXiv 2008.11837).
	ACR Algorithm = "acr"
	// Fastsnap is the contention-adaptive atomic snapshot: scans take a
	// one-round fast path when a collect returns unanimously (after
	// arXiv 2408.02562).
	Fastsnap Algorithm = "fastsnap"
)

// Algorithms lists every available algorithm, in registry order.
func Algorithms() []Algorithm {
	names := engine.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// Atomic reports whether the algorithm implements a linearizable (atomic)
// snapshot; the SSO variants are sequentially consistent instead.
func (a Algorithm) Atomic() bool {
	in, err := engine.Lookup(string(a))
	return err == nil && !in.Sequential
}

// RequiresNGreaterThan3F reports whether the algorithm needs Byzantine
// resilience n > 3f (rather than crash resilience n > 2f).
func (a Algorithm) RequiresNGreaterThan3F() bool {
	in, err := engine.Lookup(string(a))
	return err == nil && in.Byzantine
}

// Object is a snapshot object client bound to one node: Update writes the
// node's own segment, Scan returns all n segments (nil = never written).
type Object = engine.Object

// ErrCrashed is the error operations and waits fail with when the local
// node has crashed. Client scripts match it with errors.Is to tell a
// scheduled crash aborting an operation from a real failure.
var ErrCrashed = rt.ErrCrashed

// NewNode constructs the chosen algorithm's node on a runtime. The
// returned value is both the node's message handler and its operation
// endpoint. Most users should use NewSimCluster or the transport helpers
// instead; NewNode is the extension point for custom runtimes.
func NewNode(alg Algorithm, r rt.Runtime) (rt.Handler, Object, error) {
	in, err := engine.Lookup(string(alg))
	if err != nil {
		return nil, nil, fmt.Errorf("mpsnap: unknown algorithm %q (available: %v)", alg, Algorithms())
	}
	if err := in.Validate(r.N(), r.F()); err != nil {
		return nil, nil, fmt.Errorf("mpsnap: %w", err)
	}
	nd := in.New(r)
	return nd, nd, nil
}
