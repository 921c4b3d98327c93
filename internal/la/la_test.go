package la_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mpsnap/internal/core"
	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/la"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

func TestOneShotSketchEnsuresComparableBases(t *testing.T) {
	// The warm-up sketch of Section III-C guarantees condition (A1) —
	// comparable bases — but deliberately not A2/A3 (the paper assigns
	// those to "typical techniques that ensure quorum intersection").
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		f := (n - 1) / 2
		c := harness.Build(sim.Config{N: n, F: f, Seed: seed}, func(r rt.Runtime) (rt.Handler, engine.Object) {
			o := la.NewOneShot(r)
			return o, o
		})
		k := rng.Intn(f + 1)
		for victim := 0; victim < k; victim++ {
			c.W.CrashAt(n-1-victim, rt.Ticks(rng.Intn(8000)))
		}
		for i := 0; i < n; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				rng := rand.New(rand.NewSource(seed*17 + int64(i)))
				_ = o.P.Sleep(rt.Ticks(rng.Intn(3000)))
				if _, err := o.Scan(); err != nil {
					return
				}
				if err := o.UpdateValue(fmt.Sprintf("v%d-1", i)); err != nil {
					return
				}
				if _, err := o.Scan(); err != nil {
					return
				}
			})
		}
		h, err := c.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := h.ValidateValues(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if viol := h.CheckA1(); len(viol) != 0 {
			t.Logf("seed %d: %v", seed, viol[0])
			return false
		}
		if viol := h.CheckA4(); len(viol) != 0 {
			t.Logf("seed %d: %v", seed, viol[0])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOneShotAtomicLinearizable(t *testing.T) {
	// The properly integrated one-shot ASO (collect round + EQ wait) is
	// fully linearizable under random delays and crashes.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		f := (n - 1) / 2
		c := harness.Build(sim.Config{N: n, F: f, Seed: seed}, func(r rt.Runtime) (rt.Handler, engine.Object) {
			o := la.NewOneShotAtomic(r)
			return o, o
		})
		k := rng.Intn(f + 1)
		for victim := 0; victim < k; victim++ {
			c.W.CrashAt(n-1-victim, rt.Ticks(rng.Intn(8000)))
		}
		for i := 0; i < n; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				rng := rand.New(rand.NewSource(seed*17 + int64(i)))
				_ = o.P.Sleep(rt.Ticks(rng.Intn(3000)))
				if _, err := o.Scan(); err != nil {
					return
				}
				if err := o.UpdateValue(fmt.Sprintf("v%d-1", i)); err != nil {
					return
				}
				if _, err := o.Scan(); err != nil {
					return
				}
			})
		}
		h, err := c.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if rep := h.CheckLinearizable(); !rep.OK {
			t.Logf("seed %d: %v", seed, rep.Violations[0])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOneShotDoubleUpdateRejected(t *testing.T) {
	c := harness.Build(sim.Config{N: 3, F: 1, Seed: 1}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		o := la.NewOneShot(r)
		return o, o
	})
	var second error
	c.Client(0, func(o *harness.OpRunner) {
		if err := o.UpdateValue("a"); err != nil {
			t.Errorf("first update: %v", err)
		}
		second = c.Objects[0].(*la.OneShot).Update([]byte("b"))
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if second != la.ErrAlreadyUpdated {
		t.Fatalf("second update returned %v, want ErrAlreadyUpdated", second)
	}
}

// runLA runs a one-shot lattice agreement with the given node factory and
// returns the decided views (nil for nodes that crashed before deciding).
func runLA(t *testing.T, seed int64, n, f, crashes int,
	mk func(r rt.Runtime) (rt.Handler, func([]byte) (core.View, error))) []core.View {
	t.Helper()
	w := sim.New(sim.Config{N: n, F: f, Seed: seed})
	decided := make([]core.View, n)
	propose := make([]func([]byte) (core.View, error), n)
	for i := 0; i < n; i++ {
		h, p := mk(w.Runtime(i))
		w.SetHandler(i, h)
		propose[i] = p
	}
	rng := rand.New(rand.NewSource(seed))
	for victim := 0; victim < crashes; victim++ {
		w.CrashAt(n-1-victim, rt.Ticks(rng.Intn(5000)))
	}
	for i := 0; i < n; i++ {
		i := i
		w.GoNode(fmt.Sprintf("proposer-%d", i), i, func(p *sim.Proc) {
			_ = p.Sleep(rt.Ticks(rng.Intn(2000)))
			v, err := propose[i]([]byte(fmt.Sprintf("x%d", i)))
			if err != nil {
				return
			}
			decided[i] = v
		})
	}
	if err := w.Run(); err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	return decided
}

// checkLAProperties verifies downward-validity, upward-validity, and
// comparability of the decided views.
func checkLAProperties(t *testing.T, decided []core.View, n int) {
	t.Helper()
	anyDecided := false
	for i, v := range decided {
		if v.Len() == 0 {
			continue
		}
		anyDecided = true
		// Upward validity: own proposal included.
		if !v.Contains(core.Timestamp{Tag: 1, Writer: i}) {
			t.Fatalf("node %d's decision misses its own proposal: %v", i, v)
		}
		// Downward validity: only proposed values.
		for _, val := range v.Values() {
			if val.TS.Tag != 1 || val.TS.Writer < 0 || val.TS.Writer >= n {
				t.Fatalf("node %d decided a non-proposal %v", i, val.TS)
			}
		}
	}
	if !anyDecided {
		t.Fatal("no node decided")
	}
	for i := range decided {
		for j := i + 1; j < len(decided); j++ {
			if decided[i].Len() == 0 || decided[j].Len() == 0 {
				continue
			}
			if !decided[i].ComparableWith(decided[j]) {
				t.Fatalf("decisions %d and %d incomparable:\n%v\n%v", i, j, decided[i], decided[j])
			}
		}
	}
}

func TestEQLAProperties(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n := 3 + int(seed)%6
		f := (n - 1) / 2
		crashes := int(seed) % (f + 1)
		decided := runLA(t, seed, n, f, crashes, func(r rt.Runtime) (rt.Handler, func([]byte) (core.View, error)) {
			l := la.NewEQLA(r)
			return l, l.Propose
		})
		checkLAProperties(t, decided, n)
	}
}

func TestRoundLAProperties(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n := 3 + int(seed)%6
		f := (n - 1) / 2
		crashes := int(seed) % (f + 1)
		decided := runLA(t, seed, n, f, crashes, func(r rt.Runtime) (rt.Handler, func([]byte) (core.View, error)) {
			l := la.NewRoundLA(r)
			return l, l.Propose
		})
		checkLAProperties(t, decided, n)
	}
}

func TestEQLAFailureFreeFast(t *testing.T) {
	// With no failures and all delays = D, every proposer must decide in
	// a small constant number of D (the paper's 2D-flavored bound for
	// the one-shot case).
	n := 9
	w := sim.New(sim.Config{N: n, F: 4, Seed: 2, Delay: sim.Constant{Ticks: rt.TicksPerD}})
	objs := make([]*la.EQLA, n)
	for i := 0; i < n; i++ {
		objs[i] = la.NewEQLA(w.Runtime(i))
		w.SetHandler(i, objs[i])
	}
	worst := rt.Ticks(0)
	for i := 0; i < n; i++ {
		i := i
		w.GoNode(fmt.Sprintf("p%d", i), i, func(p *sim.Proc) {
			start := p.Now()
			if _, err := objs[i].Propose([]byte(fmt.Sprintf("x%d", i))); err != nil {
				t.Errorf("propose: %v", err)
				return
			}
			if l := p.Now() - start; l > worst {
				worst = l
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if worst.DUnits() > 3.0 {
		t.Fatalf("failure-free EQLA took %.1fD, want ≤ 3D", worst.DUnits())
	}
}

func TestRoundLAGrowsWithConcurrency(t *testing.T) {
	// The pull-based baseline needs more time as more proposals arrive
	// concurrently (the O(n·D) behaviour the paper ascribes to
	// double-collect); EQLA stays flat. We compare their worst latency
	// on the same staggered workload.
	measure := func(mk func(r rt.Runtime) (rt.Handler, func([]byte) (core.View, error)), n int) float64 {
		w := sim.New(sim.Config{N: n, F: (n - 1) / 2, Seed: 7, Delay: sim.Constant{Ticks: rt.TicksPerD}})
		props := make([]func([]byte) (core.View, error), n)
		for i := 0; i < n; i++ {
			h, p := mk(w.Runtime(i))
			w.SetHandler(i, h)
			props[i] = p
		}
		var worst rt.Ticks
		for i := 0; i < n; i++ {
			i := i
			w.GoNode(fmt.Sprintf("p%d", i), i, func(p *sim.Proc) {
				// Stagger proposals so each pull round discovers one
				// more value.
				_ = p.Sleep(rt.Ticks(i) * rt.TicksPerD / 2)
				start := p.Now()
				if _, err := props[i]([]byte(fmt.Sprintf("x%d", i))); err != nil {
					t.Errorf("propose: %v", err)
					return
				}
				if l := p.Now() - start; l > worst {
					worst = l
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return worst.DUnits()
	}
	n := 13
	roundWorst := measure(func(r rt.Runtime) (rt.Handler, func([]byte) (core.View, error)) {
		l := la.NewRoundLA(r)
		return l, l.Propose
	}, n)
	eqWorst := measure(func(r rt.Runtime) (rt.Handler, func([]byte) (core.View, error)) {
		l := la.NewEQLA(r)
		return l, l.Propose
	}, n)
	t.Logf("staggered proposals, n=%d: RoundLA worst %.1fD, EQLA worst %.1fD", n, roundWorst, eqWorst)
	if roundWorst <= eqWorst {
		t.Fatalf("pull-based LA (%.1fD) should be slower than proactive EQLA (%.1fD) under concurrency", roundWorst, eqWorst)
	}
}
