package eqaso_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mpsnap/internal/core"
	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// build constructs an EQ-ASO cluster.
func build(cfg sim.Config) *harness.Cluster {
	return harness.Build(cfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := eqaso.New(r)
		return nd, nd
	})
}

func TestSequentialOps(t *testing.T) {
	c := build(sim.Config{N: 3, F: 1, Seed: 1})
	c.Client(0, func(o *harness.OpRunner) {
		if err := o.UpdateValue("a"); err != nil {
			t.Errorf("update: %v", err)
		}
		snap, err := o.Scan()
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if snap[0] != "a" || snap[1] != "" || snap[2] != "" {
			t.Errorf("snap = %v, want [a ⊥ ⊥]", snap)
		}
		if err := o.UpdateValue("b"); err != nil {
			t.Errorf("update: %v", err)
		}
		snap, err = o.Scan()
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if snap[0] != "b" {
			t.Errorf("snap = %v, want segment 0 = b", snap)
		}
	})
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

func TestScanSeesPrecedingUpdate(t *testing.T) {
	// Node 0 updates, THEN node 1 scans (driven by virtual time): the
	// scan must include the update (condition A2 observed end-to-end).
	c := build(sim.Config{N: 5, F: 2, Seed: 3})
	done := make(chan string, 1)
	c.Client(0, func(o *harness.OpRunner) {
		if err := o.UpdateValue("x"); err != nil {
			t.Errorf("update: %v", err)
		}
		done <- "done"
	})
	c.Client(1, func(o *harness.OpRunner) {
		// Wait until node 0's update completed (in virtual time).
		if err := o.P.WaitUntil("upd done", func() bool { return len(done) > 0 }); err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		snap, err := o.Scan()
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if snap[0] != "x" {
			t.Errorf("scan after completed update must see it; snap = %v", snap)
		}
	})
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureFreeConstantTime(t *testing.T) {
	// The paper: with no failures every operation takes constant time
	// unconditionally, even with every message delayed by exactly D and
	// all nodes operating concurrently.
	for _, n := range []int{3, 7, 15, 25} {
		c := build(sim.Config{N: n, F: (n - 1) / 2, Seed: 11, Delay: sim.Constant{Ticks: rt.TicksPerD}})
		for i := 0; i < n; i++ {
			c.Client(i, func(o *harness.OpRunner) {
				for k := 0; k < 3; k++ {
					if _, err := o.Update(); err != nil {
						t.Errorf("update: %v", err)
					}
					if _, err := o.Scan(); err != nil {
						t.Errorf("scan: %v", err)
					}
				}
			})
		}
		h, err := c.MustLinearizable()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		st := harness.Latencies(h)
		// Constant means independent of n: generous fixed budget.
		const maxD = 16.0
		if st.WorstUpdate > maxD || st.WorstScan > maxD {
			t.Errorf("n=%d: worst update %.1fD, worst scan %.1fD exceed the constant budget %vD",
				n, st.WorstUpdate, st.WorstScan, maxD)
		}
	}
}

func TestConcurrentMixedWorkloadLinearizable(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 4 + int(seed)
		c := build(sim.Config{N: n, F: (n - 1) / 2, Seed: seed})
		for i := 0; i < n; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				rng := rand.New(rand.NewSource(seed*100 + int64(i)))
				for k := 0; k < 6; k++ {
					var err error
					if rng.Intn(2) == 0 {
						_, err = o.Update()
					} else {
						_, err = o.Scan()
					}
					if err != nil {
						t.Errorf("seed %d node %d: %v", seed, i, err)
						return
					}
					_ = o.P.Sleep(rt.Ticks(rng.Intn(2000)))
				}
			})
		}
		if _, err := c.MustLinearizable(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLinearizableUnderCrashes(t *testing.T) {
	// Crash up to f nodes at random times while all nodes run ops.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		f := (n - 1) / 2
		k := 1 + rng.Intn(f)
		c := build(sim.Config{N: n, F: f, Seed: seed})
		for victim := 0; victim < k; victim++ {
			c.W.CrashAt(victim, rt.Ticks(rng.Intn(20000)))
		}
		for i := 0; i < n; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				rng := rand.New(rand.NewSource(seed*31 + int64(i)))
				for k := 0; k < 5; k++ {
					var err error
					if rng.Intn(2) == 0 {
						_, err = o.Update()
					} else {
						_, err = o.Scan()
					}
					if err != nil {
						return // crashed node: client stops
					}
					_ = o.P.Sleep(rt.Ticks(rng.Intn(3000)))
				}
			})
		}
		h, err := c.Run()
		if err != nil {
			t.Logf("seed %d: run error: %v", seed, err)
			return false
		}
		if rep := h.CheckLinearizable(); !rep.OK {
			t.Logf("seed %d: %v", seed, rep.Violations)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsCompleteWithFNodesDown(t *testing.T) {
	// f nodes are crashed from the very start; the remaining majority
	// must still complete operations (n > 2f resilience).
	n, f := 7, 3
	c := build(sim.Config{N: n, F: f, Seed: 9})
	for i := 0; i < f; i++ {
		c.W.CrashAt(i, 0)
	}
	for i := f; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
			}
			if _, err := o.Scan(); err != nil {
				t.Errorf("scan: %v", err)
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

func TestGoodLatticeViewsComparable(t *testing.T) {
	// Lemma 2: the views of any pair of good lattice operations are
	// comparable. Instrument every node and check all pairs.
	n := 6
	var mu sync.Mutex
	var views []core.View
	c := harness.Build(sim.Config{N: n, F: 2, Seed: 21}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := eqaso.New(r)
		nd.OnGoodLattice = func(tag core.Tag, view core.View) {
			mu.Lock()
			views = append(views, view)
			mu.Unlock()
		}
		return nd, nd
	})
	c.W.CrashAt(5, 4000)
	for i := 0; i < n; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 4; k++ {
				if _, err := o.Update(); err != nil {
					return
				}
				if _, err := o.Scan(); err != nil {
					return
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	if len(views) == 0 {
		t.Fatal("no good lattice operations observed")
	}
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			if !views[i].ComparableWith(views[j]) {
				t.Fatalf("good views %d and %d incomparable:\n%v\n%v", i, j, views[i], views[j])
			}
		}
	}
}

func TestPerWriterTimestampsIncrease(t *testing.T) {
	// Values of the same writer must carry strictly increasing tags
	// (uniqueness assumption underlying Definition 4).
	n := 5
	var nodes []*eqaso.Node
	c := harness.Build(sim.Config{N: n, F: 2, Seed: 33}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := eqaso.New(r)
		nodes = append(nodes, nd)
		return nd, nd
	})
	for i := 0; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 5; k++ {
				if _, err := o.Update(); err != nil {
					return
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	view := nodes[0].LocalView()
	last := make(map[int]core.Tag)
	count := make(map[int]int)
	for _, v := range view.Values() {
		if prev, ok := last[v.TS.Writer]; ok && v.TS.Tag <= prev {
			t.Fatalf("writer %d tags not increasing: %d then %d", v.TS.Writer, prev, v.TS.Tag)
		}
		last[v.TS.Writer] = v.TS.Tag
		count[v.TS.Writer]++
	}
	for i := 0; i < n; i++ {
		if count[i] != 5 {
			t.Fatalf("node 0 knows %d values from writer %d, want 5", count[i], i)
		}
	}
}

func TestFailureChainDelaysButTerminates(t *testing.T) {
	// Build the paper's worst-case execution: failure chains expose
	// values late. The scan must still terminate, and the history stays
	// linearizable; the latency grows with the chain length.
	n := 12
	f := 5
	keyOf := func(m rt.Message) (any, bool) {
		mv, ok := m.(eqaso.MsgValue)
		if !ok {
			return nil, false
		}
		return mv.Val.TS, true
	}
	chains, used := sim.BuildChains([]int{0, 1, 2, 3, 4}, f, 11)
	if used == 0 {
		t.Fatal("no chains built")
	}
	fc := sim.NewFailureChains(keyOf, chains...)
	c := build(sim.Config{N: n, F: f, Seed: 5, Adversary: fc, Delay: sim.Constant{Ticks: rt.TicksPerD}})
	// Chain heads invoke updates (their crash mid-broadcast starts the chain).
	for _, ch := range chains {
		head := ch.Nodes[0]
		c.Client(head, func(o *harness.OpRunner) {
			_, _ = o.Update() // will crash mid-update
		})
	}
	// A correct node scans concurrently.
	var scanLatency rt.Ticks
	c.Client(6, func(o *harness.OpRunner) {
		start := o.P.Now()
		if _, err := o.Scan(); err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		scanLatency = o.P.Now() - start
	})
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	if scanLatency == 0 {
		t.Fatal("scan did not run")
	}
	t.Logf("scan latency under failure chains: %.1fD", scanLatency.DUnits())
}

func TestCrashedNodeOpsFail(t *testing.T) {
	c := build(sim.Config{N: 3, F: 1, Seed: 2})
	c.W.CrashAt(0, 500)
	var gotErr error
	c.Client(0, func(o *harness.OpRunner) {
		for i := 0; i < 100; i++ {
			if err := o.UpdateValue(fmt.Sprintf("u%d", i)); err != nil {
				gotErr = err
				return
			}
		}
	})
	h, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(gotErr, rt.ErrCrashed) {
		t.Fatalf("op on crashed node returned %v, want ErrCrashed", gotErr)
	}
	if rep := h.CheckLinearizable(); !rep.OK {
		t.Fatalf("history: %v", rep.Violations)
	}
}

func TestGoodViewCachesStayBounded(t *testing.T) {
	// The value history grows with the execution (inherent to the
	// model), but the good-view caches must stay proportional to
	// in-flight activity thanks to pruneBelow.
	n := 5
	var nodes []*eqaso.Node
	c := harness.Build(sim.Config{N: n, F: 2, Seed: 17}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := eqaso.New(r)
		nodes = append(nodes, nd)
		return nd, nd
	})
	const opsPerNode = 15
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
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		m := nd.Memory()
		if m.Values != n*opsPerNode {
			t.Errorf("node %d holds %d values, want %d", i, m.Values, n*opsPerNode)
		}
		// Tags used ~ O(total ops); the caches must be far below that.
		cacheBound := 3 * n
		if m.BorrowTags+m.OwnGoodTags > cacheBound {
			t.Errorf("node %d good-view caches unbounded: borrow=%d own=%d (> %d)",
				i, m.BorrowTags, m.OwnGoodTags, cacheBound)
		}
		if m.Forwarded < m.Values {
			t.Errorf("node %d forwarded set %d < values %d", i, m.Forwarded, m.Values)
		}
	}
}

func TestStatsAndDirectViews(t *testing.T) {
	var nd0 *eqaso.Node
	c := harness.Build(sim.Config{N: 3, F: 1, Seed: 4}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := eqaso.New(r)
		if r.ID() == 0 {
			nd0 = nd
		}
		return nd, nd
	})
	c.Client(0, func(o *harness.OpRunner) {
		_, _ = o.Update()
		_, _ = o.Scan()
	})
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	st := nd0.Stats()
	if st.Updates != 1 || st.Scans != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DirectViews+st.IndirectViews < 2 {
		t.Fatalf("every op must resolve a view: %+v", st)
	}
	if st.LatticeOps < 3 {
		t.Fatalf("update needs ≥2 lattice ops and scan ≥1: %+v", st)
	}
}
