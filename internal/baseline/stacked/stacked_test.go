package stacked_test

import (
	"testing"

	"mpsnap/internal/baseline/stacked"
	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

func build(cfg sim.Config) (*harness.Cluster, []*stacked.Node) {
	nodes := make([]*stacked.Node, 0, cfg.N)
	c := harness.Build(cfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := stacked.New(r)
		nodes = append(nodes, nd)
		return nd, nd
	})
	return c, nodes
}

// TestUpdateVisibleAcrossNodes: a value written on node 0 is returned by a
// later scan on node 1. Stacked collects cost O(n²·D), so the reader waits
// generously.
func TestUpdateVisibleAcrossNodes(t *testing.T) {
	c, _ := build(sim.Config{N: 3, F: 1, Seed: 1})
	c.Client(0, func(o *harness.OpRunner) {
		if _, err := o.Update(); err != nil {
			t.Error(err)
		}
	})
	c.Client(1, func(o *harness.OpRunner) {
		_ = o.P.Sleep(60 * rt.TicksPerD)
		snap, err := o.Scan()
		if err != nil {
			t.Error(err)
			return
		}
		if snap[0] != "v0-1" {
			t.Errorf("snap[0] = %q, want v0-1", snap[0])
		}
	})
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedWorkloadLinearizable: the stacking construction is slow but
// correct — a small concurrent workload linearizes. Kept small because
// every operation costs O(n²·D).
func TestMixedWorkloadLinearizable(t *testing.T) {
	c, _ := build(sim.Config{N: 3, F: 1, Seed: 7})
	for i := 0; i < 3; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 2; k++ {
				if _, err := o.Update(); err != nil {
					t.Error(err)
					return
				}
				if _, err := o.Scan(); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

// TestStats: the embedded Afek layer counts operations, and a scan runs
// the double-collect loop (≥ 2 collects, each of n sequential reads).
func TestStats(t *testing.T) {
	c, nodes := build(sim.Config{N: 3, F: 1, Seed: 3})
	c.Client(0, func(o *harness.OpRunner) {
		if _, err := o.Update(); err != nil {
			t.Error(err)
		}
		if _, err := o.Scan(); err != nil {
			t.Error(err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	st := nodes[0].Stats()
	if st.Updates != 1 || st.Scans != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Collects < 2 {
		t.Fatalf("scan ran %d collects, want ≥ 2 (double collect)", st.Collects)
	}
}

// TestSurvivesCrash: with one node crashed (f=1) the survivors still
// complete operations and the history stays linearizable.
func TestSurvivesCrash(t *testing.T) {
	c, _ := build(sim.Config{N: 3, F: 1, Seed: 11})
	c.W.CrashAt(2, 1)
	for i := 0; i < 2; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Error(err)
				return
			}
			if _, err := o.Scan(); err != nil {
				t.Error(err)
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}
