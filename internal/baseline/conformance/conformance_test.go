// Package conformance runs a shared correctness battery over every
// snapshot-object implementation in the repository: the paper's algorithms
// and all Table I baselines face the same randomized workloads, crash
// schedules, and the (A1)-(A4) linearizability checker.
package conformance_test

import (
	"math/rand"
	"testing"

	"mpsnap/internal/baseline/delporte"
	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/baseline/stacked"
	"mpsnap/internal/baseline/storecollect"
	"mpsnap/internal/byzaso"
	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

type factory struct {
	name string
	// minNOver3F requires n > 3f (Byzantine-resilient algorithms).
	minNOver3F bool
	mk         func(r rt.Runtime) (rt.Handler, engine.Object)
}

func factories() []factory {
	return []factory{
		{name: "eqaso", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := eqaso.New(r)
			return nd, nd
		}},
		{name: "byzaso", minNOver3F: true, mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := byzaso.New(r)
			return nd, nd
		}},
		{name: "delporte", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := delporte.New(r)
			return nd, nd
		}},
		{name: "storecollect", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := storecollect.New(r)
			return nd, nd
		}},
		{name: "stacked", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := stacked.New(r)
			return nd, nd
		}},
		{name: "laaso", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := laaso.New(r)
			return nd, nd
		}},
	}
}

func runMixed(t *testing.T, fc factory, seed int64, crashes bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(3)
	f := (n - 1) / 2
	if fc.minNOver3F {
		n = 7
		f = 2
	}
	c := harness.Build(sim.Config{N: n, F: f, Seed: seed}, fc.mk)
	if crashes {
		k := 1 + rng.Intn(f)
		for victim := 0; victim < k; victim++ {
			c.W.CrashAt(victim, rt.Ticks(rng.Intn(40000)))
		}
	}
	for i := 0; i < n; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			rng := rand.New(rand.NewSource(seed*1009 + int64(i)))
			for k := 0; k < 4; k++ {
				var err error
				if rng.Intn(2) == 0 {
					_, err = o.Update()
				} else {
					_, err = o.Scan()
				}
				if err != nil {
					return // crashed client
				}
				_ = o.P.Sleep(rt.Ticks(rng.Intn(4000)))
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatalf("%s seed=%d crashes=%v: %v", fc.name, seed, crashes, err)
	}
}

func TestAllAlgorithmsLinearizableFailureFree(t *testing.T) {
	for _, fc := range factories() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				runMixed(t, fc, seed, false)
			}
		})
	}
}

func TestAllAlgorithmsLinearizableUnderCrashes(t *testing.T) {
	for _, fc := range factories() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			for seed := int64(100); seed < 105; seed++ {
				runMixed(t, fc, seed, true)
			}
		})
	}
}

func TestAllAlgorithmsSeeOwnCompletedUpdates(t *testing.T) {
	for _, fc := range factories() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			n, f := 5, 2
			if fc.minNOver3F {
				n, f = 7, 2
			}
			c := harness.Build(sim.Config{N: n, F: f, Seed: 42}, fc.mk)
			for i := 0; i < n; i++ {
				i := i
				c.Client(i, func(o *harness.OpRunner) {
					v, err := o.Update()
					if err != nil {
						t.Errorf("update: %v", err)
						return
					}
					snap, err := o.Scan()
					if err != nil {
						t.Errorf("scan: %v", err)
						return
					}
					if snap[i] != v {
						t.Errorf("%s: node %d scan misses own update %q: %v", fc.name, i, v, snap)
					}
				})
			}
			if _, err := c.MustLinearizable(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
