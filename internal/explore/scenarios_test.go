package explore_test

import (
	"fmt"
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/explore"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/la"
	"mpsnap/internal/sim"
)

// concurrentScenario: nodes 0 and 1 update concurrently while node 2
// scans twice in sequence — the shape that stresses condition (A1)
// (comparable bases) and (A3) (same-node scan monotonicity) under every
// delivery order.
func concurrentScenario(mk func(w *sim.World, i int) engine.Object) func(s sim.Sequencer) error {
	return func(s sim.Sequencer) error {
		const n, f = 3, 1
		w := sim.New(sim.Config{N: n, F: f, Seed: 1, Sequencer: s})
		objs := make([]engine.Object, n)
		for i := 0; i < n; i++ {
			objs[i] = mk(w, i)
		}
		rec := history.NewRecorder(n)
		for _, u := range []int{0, 1} {
			u := u
			w.GoNode(fmt.Sprintf("u%d", u), u, func(p *sim.Proc) {
				pend := rec.BeginUpdate(u, fmt.Sprintf("v%d", u), w.Now())
				if err := objs[u].Update([]byte(fmt.Sprintf("v%d", u))); err != nil {
					return
				}
				pend.End(w.Now())
			})
		}
		w.GoNode("s2", 2, func(p *sim.Proc) {
			for k := 0; k < 2; k++ {
				pend := rec.BeginScan(2, w.Now())
				snap, err := objs[2].Scan()
				if err != nil {
					return
				}
				pend.EndScan(harness.SnapStrings(snap), w.Now())
				if err := p.Sleep(1); err != nil {
					return
				}
			}
		})
		if err := w.Run(); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		if rep := rec.History().CheckLinearizable(); !rep.OK {
			return fmt.Errorf("%s", rep.Violations[0])
		}
		return nil
	}
}

func TestConcurrentUpdatesAllSchedulesEQASO(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 4, MaxRuns: 400000},
		concurrentScenario(func(w *sim.World, i int) engine.Object {
			nd := eqaso.New(w.Runtime(i))
			w.SetHandler(i, nd)
			return nd
		}))
	if err != nil {
		t.Fatalf("after %d runs: %v", res.Runs, err)
	}
	if res.Truncated {
		t.Fatalf("truncated at %d runs", res.Runs)
	}
	t.Logf("verified %d schedules", res.Runs)
}

func TestConcurrentUpdatesAllSchedulesOneShotAtomic(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 5, MaxRuns: 400000},
		concurrentScenario(func(w *sim.World, i int) engine.Object {
			o := la.NewOneShotAtomic(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		}))
	if err != nil {
		t.Fatalf("after %d runs: %v", res.Runs, err)
	}
	if res.Truncated {
		t.Fatalf("truncated at %d runs", res.Runs)
	}
	t.Logf("verified %d schedules", res.Runs)
}

// crashScenario: like the update-then-scan scenario, but one node's crash
// is an explorable event — its position in the schedule (including
// whether it interrupts the update's quorum gathering) is part of the
// search space. n=5/f=2 keeps a quorum alive.
func crashScenario() func(s sim.Sequencer) error {
	return func(s sim.Sequencer) error {
		const n, f = 5, 2
		w := sim.New(sim.Config{N: n, F: f, Seed: 1, Sequencer: s})
		objs := make([]engine.Object, n)
		for i := 0; i < n; i++ {
			nd := eqaso.New(w.Runtime(i))
			w.SetHandler(i, nd)
			objs[i] = nd
		}
		// The crash is a scheduled (non-message) event: the sequencer
		// decides when it fires relative to everything else.
		w.CrashAt(1, 1)
		rec := history.NewRecorder(n)
		var updDone bool
		w.GoNode("u0", 0, func(p *sim.Proc) {
			pend := rec.BeginUpdate(0, "a", w.Now())
			if err := objs[0].Update([]byte("a")); err != nil {
				return
			}
			pend.End(w.Now())
			updDone = true
		})
		w.GoNode("s4", 4, func(p *sim.Proc) {
			if err := p.WaitUntilGlobal("update done", func() bool { return updDone }); err != nil {
				return
			}
			if err := p.Sleep(1); err != nil {
				return
			}
			pend := rec.BeginScan(4, w.Now())
			snap, err := objs[4].Scan()
			if err != nil {
				return
			}
			pend.EndScan(harness.SnapStrings(snap), w.Now())
		})
		if err := w.Run(); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		if rep := rec.History().CheckLinearizable(); !rep.OK {
			return fmt.Errorf("%s", rep.Violations[0])
		}
		return nil
	}
}

func TestCrashTimingAllSchedules(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 4, MaxRuns: 400000}, crashScenario())
	if err != nil {
		t.Fatalf("after %d runs: %v", res.Runs, err)
	}
	if res.Truncated {
		t.Fatalf("truncated at %d runs", res.Runs)
	}
	t.Logf("verified %d schedules (crash position explored)", res.Runs)
}
