package eqaso_test

import (
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// buildRegistry builds a sim cluster from the engine registry's eqaso
// constructor — the one every deployment uses — with no WAL attached.
func buildRegistry(cfg sim.Config) (*harness.Cluster, []*eqaso.Node) {
	info := engine.MustLookup("eqaso")
	var nodes []*eqaso.Node
	c := harness.Build(cfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		e := info.New(r)
		nodes = append(nodes, e.(*eqaso.Node))
		return e, e
	})
	return c, nodes
}

// runMixed gives every node a client that alternates updates and scans,
// stopping at its first error (a crashed node).
func runMixed(c *harness.Cluster, n, opsPerNode int) {
	for i := 0; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < opsPerNode; k++ {
				if _, err := o.Update(); err != nil {
					return
				}
				if _, err := o.Scan(); err != nil {
					return
				}
			}
		})
	}
}

// TestRegistryNodesPruneWithoutWAL: registry-built nodes prune below the
// globally vouched checkpoint with no WAL attached, so what each node
// holds tracks the active window, not the history, and the run stays
// linearizable.
func TestRegistryNodesPruneWithoutWAL(t *testing.T) {
	const n, opsPerNode = 4, 40
	c, nodes := buildRegistry(sim.Config{N: n, F: 1, Seed: 5})
	runMixed(c, n, opsPerNode)
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		m := nd.Memory()
		if m.Values != n*opsPerNode {
			t.Errorf("node %d learned %d values, want %d", i, m.Values, n*opsPerNode)
		}
		if m.Pruned == 0 {
			t.Errorf("node %d never pruned: %+v", i, m)
		}
		if m.Retained > m.Values/4 {
			t.Errorf("node %d retains %d of %d values", i, m.Retained, m.Values)
		}
		if m.Retained+m.Pruned != m.Values {
			t.Errorf("node %d: retained %d + pruned %d != values %d", i, m.Retained, m.Pruned, m.Values)
		}
		if st := nd.Stats(); st.VouchesSent == 0 || st.LogPrunes == 0 {
			t.Errorf("node %d: vouches %d, prunes %d", i, st.VouchesSent, st.LogPrunes)
		}
	}
}

// TestPruneStopsAtCrashedNodesLastVouch: a crash-stopped node never
// vouches again, so the survivors keep operating — linearizably — but
// prune no further than the last checkpoint all n nodes vouched, which is
// at most the crashed node's frontier.
func TestPruneStopsAtCrashedNodesLastVouch(t *testing.T) {
	const n, opsPerNode, victim = 4, 40, 3
	c, nodes := buildRegistry(sim.Config{N: n, F: 1, Seed: 6})
	c.W.CrashAt(victim, 30000)
	runMixed(c, n, opsPerNode)
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	last := nodes[victim].Memory().Frozen // the crashed node's final frontier
	if last == 0 {
		t.Fatal("the victim crashed before it ever vouched; move the crash later")
	}
	for i, nd := range nodes {
		if i == victim {
			continue
		}
		m := nd.Memory()
		if m.Pruned == 0 {
			t.Errorf("node %d never pruned before the crash: %+v", i, m)
		}
		if m.Pruned > last {
			t.Errorf("node %d pruned %d values, past the crashed node's last frontier %d", i, m.Pruned, last)
		}
		if m.Values <= last {
			t.Errorf("node %d learned only %d values: the survivors stopped at the crash", i, m.Values)
		}
	}
}
