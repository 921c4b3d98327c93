package explore_test

import (
	"errors"
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

// oneShotScenario builds the canonical two-operation scenario: node 0
// updates; after the update completes, node 2 scans. A linearizable
// object must make the scan see the update under EVERY schedule.
func oneShotScenario(mk func(w *sim.World, i int) engine.Object) func(s sim.Sequencer) error {
	return func(s sim.Sequencer) error {
		const n, f = 3, 1
		w := sim.New(sim.Config{N: n, F: f, Seed: 1, Sequencer: s})
		objs := make([]engine.Object, n)
		for i := 0; i < n; i++ {
			objs[i] = mk(w, i)
		}
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
		w.GoNode("s2", 2, func(p *sim.Proc) {
			if err := p.WaitUntilGlobal("update done", func() bool { return updDone }); err != nil {
				return
			}
			// Advance the clock so the scan strictly follows the update
			// in real time (equal timestamps would make them concurrent
			// and mask violations).
			if err := p.Sleep(1); err != nil {
				return
			}
			pend := rec.BeginScan(2, w.Now())
			snap, err := objs[2].Scan()
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

// TestSketchCounterexampleFound: the paper's one-shot warm-up sketch
// (Section III-C) guarantees only (A1); the explorer must find a schedule
// where a scan misses a completed update — the counterexample motivating
// the "typical quorum techniques" of Section III-B.
func TestSketchCounterexampleFound(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 8, MaxRuns: 200000},
		oneShotScenario(func(w *sim.World, i int) engine.Object {
			o := la.NewOneShot(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		}))
	var v *explore.Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected a violation, got err=%v after %d runs", err, res.Runs)
	}
	t.Logf("counterexample schedule %v found after %d runs: %v", v.Schedule, res.Runs, v.Err)

	// The violation must replay deterministically.
	replay := oneShotScenario(func(w *sim.World, i int) engine.Object {
		o := la.NewOneShot(w.Runtime(i))
		w.SetHandler(i, o)
		return o
	})
	if err := replay(explore.Replay(v.Schedule)); err == nil {
		t.Fatal("violating schedule did not replay")
	}
}

// TestOneShotAtomicSurvivesAllSchedules: with the quorum collect round
// added, every schedule of the bounded tree is linearizable.
func TestOneShotAtomicSurvivesAllSchedules(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 6, MaxRuns: 300000},
		oneShotScenario(func(w *sim.World, i int) engine.Object {
			o := la.NewOneShotAtomic(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		}))
	if err != nil {
		t.Fatalf("after %d runs: %v", res.Runs, err)
	}
	if res.Truncated {
		t.Fatalf("search truncated at %d runs; raise MaxRuns", res.Runs)
	}
	if res.Runs < 100 {
		t.Fatalf("suspiciously small schedule tree: %d runs", res.Runs)
	}
	t.Logf("verified %d schedules", res.Runs)
}

// TestEQASOSurvivesAllSchedules: the full multi-shot EQ-ASO under the same
// bounded-exhaustive exploration.
func TestEQASOSurvivesAllSchedules(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 5, MaxRuns: 300000},
		oneShotScenario(func(w *sim.World, i int) engine.Object {
			nd := eqaso.New(w.Runtime(i))
			w.SetHandler(i, nd)
			return nd
		}))
	if err != nil {
		t.Fatalf("after %d runs: %v", res.Runs, err)
	}
	if res.Truncated {
		t.Fatalf("search truncated at %d runs", res.Runs)
	}
	t.Logf("verified %d schedules", res.Runs)
}

// TestOdometerEnumeratesFullTree: with synthetic branching (width 2 at
// every one of the first 3 steps, then width 1), the explorer runs
// exactly 2^3 schedules.
func TestOdometerEnumeratesFullTree(t *testing.T) {
	var schedules [][]int
	res, err := explore.Run(explore.Options{Depth: 3, MaxRuns: 100}, func(s sim.Sequencer) error {
		eligible2 := []sim.EventInfo{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
		eligible1 := []sim.EventInfo{{Src: 0, Dst: 1}}
		var trace []int
		for step := 0; step < 5; step++ {
			e := eligible1
			if step < 3 {
				e = eligible2
			}
			trace = append(trace, s.Next(e))
		}
		schedules = append(schedules, trace)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 8 {
		t.Fatalf("runs = %d, want 8", res.Runs)
	}
	seen := map[string]bool{}
	for _, tr := range schedules {
		key := fmt.Sprint(tr[:3])
		if seen[key] {
			t.Fatalf("schedule %v explored twice", tr)
		}
		seen[key] = true
		if tr[3] != 0 || tr[4] != 0 {
			t.Fatalf("beyond-depth choices must default to 0: %v", tr)
		}
	}
}
