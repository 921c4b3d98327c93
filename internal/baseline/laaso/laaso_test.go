package laaso_test

import (
	"testing"

	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

func build(cfg sim.Config) (*harness.Cluster, []*laaso.Node) {
	nodes := make([]*laaso.Node, 0, cfg.N)
	c := harness.Build(cfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := laaso.New(r)
		nodes = append(nodes, nd)
		return nd, nd
	})
	return c, nodes
}

// TestUpdateVisibleAcrossNodes: a value written on node 0 is returned by a
// later scan on node 1.
func TestUpdateVisibleAcrossNodes(t *testing.T) {
	c, _ := build(sim.Config{N: 3, F: 1, Seed: 1})
	c.Client(0, func(o *harness.OpRunner) {
		if _, err := o.Update(); err != nil {
			t.Error(err)
		}
	})
	c.Client(1, func(o *harness.OpRunner) {
		_ = o.P.Sleep(20 * rt.TicksPerD)
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

// TestMixedWorkloadLinearizable: concurrent updates and scans from every
// node produce a linearizable history.
func TestMixedWorkloadLinearizable(t *testing.T) {
	c, _ := build(sim.Config{N: 5, F: 2, Seed: 7})
	for i := 0; i < 5; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 3; k++ {
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

// TestStats: operations are counted, every update runs lattice agreement,
// and lattice agreement consumes pull rounds.
func TestStats(t *testing.T) {
	c, nodes := build(sim.Config{N: 3, F: 1, Seed: 3})
	c.Client(0, func(o *harness.OpRunner) {
		for k := 0; k < 2; k++ {
			if _, err := o.Update(); err != nil {
				t.Error(err)
			}
		}
		if _, err := o.Scan(); err != nil {
			t.Error(err)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	st := nodes[0].Stats()
	if st.Updates != 2 || st.Scans != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LatticeOps == 0 || st.PullRounds == 0 {
		t.Fatalf("no lattice work recorded: %+v", st)
	}
}

// TestSurvivesCrashes: with f nodes crashed the survivors still complete
// operations and the history stays linearizable.
func TestSurvivesCrashes(t *testing.T) {
	c, _ := build(sim.Config{N: 5, F: 2, Seed: 11})
	c.W.CrashAt(3, 1)
	c.W.CrashAt(4, 5*rt.TicksPerD)
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
