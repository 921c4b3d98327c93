package conformance_test

import (
	"testing"

	"mpsnap/internal/baseline/delporte"
	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/baseline/storecollect"
	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// TestDelporteUpdateIsOneRound: with constant-D delays and no contention
// the [19]-style update completes in exactly 2D (one store quorum round) —
// the O(D) column of Table I.
func TestDelporteUpdateIsOneRound(t *testing.T) {
	var nd0 *delporte.Node
	c := harness.Build(sim.Config{N: 9, F: 4, Seed: 1, Delay: sim.Constant{Ticks: rt.TicksPerD}},
		func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := delporte.New(r)
			if r.ID() == 0 {
				nd0 = nd
			}
			return nd, nd
		})
	c.Client(0, func(o *harness.OpRunner) {
		start := o.P.Now()
		if _, err := o.Update(); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		if d := (o.P.Now() - start).DUnits(); d != 2.0 {
			t.Errorf("uncontended delporte update took %.1fD, want exactly 2D", d)
		}
	})
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	st := nd0.Stats()
	if st.Updates != 1 || st.Collects != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDelporteScanCollectCountGrowsWithContention: every concurrent update
// observed mid-scan forces another collect round — the O(n·D) behaviour.
func TestDelporteScanCollectCountGrowsWithContention(t *testing.T) {
	measure := func(updaters int) int64 {
		n := 11
		var scanner *delporte.Node
		c := harness.Build(sim.Config{N: n, F: 5, Seed: 3, Delay: sim.Constant{Ticks: rt.TicksPerD}},
			func(r rt.Runtime) (rt.Handler, engine.Object) {
				nd := delporte.New(r)
				if r.ID() == 0 {
					scanner = nd
				}
				return nd, nd
			})
		for i := 1; i <= updaters; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				// Stagger so the scanner keeps observing movement.
				_ = o.P.Sleep(rt.Ticks(i) * 2 * rt.TicksPerD)
				_, _ = o.Update()
			})
		}
		c.Client(0, func(o *harness.OpRunner) {
			_, _ = o.Scan()
		})
		if _, err := c.MustLinearizable(); err != nil {
			t.Fatal(err)
		}
		return scanner.Stats().Collects
	}
	idle := measure(0)
	busy := measure(8)
	if idle != 2 {
		t.Fatalf("idle scan should double-collect exactly twice, got %d", idle)
	}
	if busy <= idle+2 {
		t.Fatalf("contended scan should need many more collects: idle=%d busy=%d", idle, busy)
	}
}

// TestStoreCollectTracksActivity: the store-collect node's statistics
// reflect its operations (the deterministic helping path is unit-tested
// against a scripted substrate in internal/baseline/afek).
func TestStoreCollectTracksActivity(t *testing.T) {
	n := 5
	var nd0 *storecollect.Node
	c := harness.Build(sim.Config{N: n, F: 2, Seed: 5, Delay: sim.Constant{Ticks: rt.TicksPerD}},
		func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := storecollect.New(r)
			if r.ID() == 0 {
				nd0 = nd
			}
			return nd, nd
		})
	c.Client(0, func(o *harness.OpRunner) {
		if _, err := o.Update(); err != nil {
			t.Errorf("update: %v", err)
		}
		if _, err := o.Scan(); err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	st := nd0.Stats()
	if st.Updates != 1 || st.Scans != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The update embeds a scan (2 collects) and the scan double-collects:
	// at least 4 collects in total.
	if st.Collects < 4 {
		t.Fatalf("expected ≥4 collects (embedded + double), got %d", st.Collects)
	}
}

// TestLAASOSlowerThanEQASOUnderContention: the pull-based lattice
// operation pays for every concurrently exposed value, while proactive
// forwarding keeps EQ-ASO's operations flat — Table I's shape as a test.
func TestLAASOSlowerThanEQASOUnderContention(t *testing.T) {
	measure := func(mk func(r rt.Runtime) (rt.Handler, engine.Object)) float64 {
		n := 13
		c := harness.Build(sim.Config{N: n, F: 6, Seed: 7, Delay: sim.Constant{Ticks: rt.TicksPerD}}, mk)
		for i := 0; i < n; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				_ = o.P.Sleep(rt.Ticks(i) * rt.TicksPerD / 2)
				for k := 0; k < 2; k++ {
					if _, err := o.Update(); err != nil {
						return
					}
					if _, err := o.Scan(); err != nil {
						return
					}
				}
			})
		}
		h, err := c.MustLinearizable()
		if err != nil {
			t.Fatal(err)
		}
		st := harness.Latencies(h)
		worst := st.WorstUpdate
		if st.WorstScan > worst {
			worst = st.WorstScan
		}
		return worst
	}
	la := measure(func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := laaso.New(r)
		return nd, nd
	})
	eq := measure(func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := eqaso.New(r)
		return nd, nd
	})
	t.Logf("contended worst: laaso %.1fD vs eqaso %.1fD", la, eq)
	if la < eq+2 {
		t.Fatalf("pull-based laaso (%.1fD) should be clearly slower than eqaso (%.1fD)", la, eq)
	}
}
