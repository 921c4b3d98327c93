package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// TestSeedDeterminism: the sim backend is a pure function of the seed —
// two runs produce byte-identical history JSON and the same schedule.
func TestSeedDeterminism(t *testing.T) {
	cfg := Config{N: 5, F: 2, Seed: 42, Duration: 60 * rt.TicksPerD}
	run := func() ([]byte, Schedule) {
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Check.OK {
			t.Fatalf("not linearizable: %v", res.Check.Violations)
		}
		var buf bytes.Buffer
		if err := res.Hist.DumpJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res.Schedule
	}
	b1, s1 := run()
	b2, s2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("schedules differ:\n%+v\n%+v", s1, s2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed produced different histories (%d vs %d bytes)", len(b1), len(b2))
	}
	// And a different seed actually changes the faults.
	cfg.Seed = 43
	if _, s3 := run(); s3.Hash() == s1.Hash() {
		t.Fatalf("seeds 42 and 43 generated the same schedule %s", s1.Hash())
	}
}

// TestScanSpansPartition is the harness's reason to exist in miniature: a
// SCAN invoked just before a partition cuts its node into the minority
// island must block across the partition, complete after heal, and the
// whole history — including updates completed inside the majority island
// while the cut was up — must linearize.
func TestScanSpansPartition(t *testing.T) {
	const healAt = 15 * rt.TicksPerD
	c := harness.Build(sim.Config{N: 5, F: 2, Seed: 11}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := engine.MustLookup("eqaso").New(r)
		return nd, nd
	})
	w := c.W
	// The partition lands at t=1: the scan's outgoing requests (sent at
	// t=0) are already in flight and still delivered, but every response
	// from the majority island is sent after the cut and held.
	w.After(1, func() { w.Partition([]int{0, 1}, []int{2, 3, 4}) })
	w.After(healAt, func() { w.Heal() })
	c.Client(0, func(o *harness.OpRunner) {
		if _, err := o.Scan(); err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	for i := 2; i < 5; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 2; k++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update node %d: %v", o.Node(), err)
				}
			}
		})
	}
	h, err := c.MustLinearizable()
	if err != nil {
		t.Fatal(err)
	}
	var scan *history.Op
	duringCut := 0
	for _, op := range h.Ops {
		if op.Type == history.Scan && op.Node == 0 {
			scan = op
		}
		if op.Type == history.Update && !op.Pending() && op.Resp < healAt {
			duringCut++
		}
	}
	if scan == nil || scan.Pending() {
		t.Fatal("node 0's scan did not complete")
	}
	if scan.Resp < healAt {
		t.Fatalf("scan completed at t=%d, before the heal at t=%d — the minority island answered it", scan.Resp, healAt)
	}
	if duringCut == 0 {
		t.Fatal("no update completed inside the majority island while the partition was up")
	}
}

// TestRunSimAllAlgs: every supported object survives the default fault
// mix with its consistency condition intact.
func TestRunSimAllAlgs(t *testing.T) {
	for _, tc := range []struct {
		alg  string
		n, f int
	}{
		{"eqaso", 5, 2},
		{"byzaso", 7, 2},
		{"sso", 5, 2},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			res, err := RunSim(Config{N: tc.n, F: tc.f, Engine: tc.alg, Seed: 5, Duration: 50 * rt.TicksPerD})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Check.OK {
				t.Fatalf("check failed: %v", res.Check.Violations)
			}
			if len(res.Hist.Ops) == 0 {
				t.Fatal("empty history")
			}
		})
	}
}

// TestRunTransportChan: the same schedule machinery drives the real
// channel transport; the verdict (not the exact history) must hold.
func TestRunTransportChan(t *testing.T) {
	res, err := RunTransport(Config{N: 5, F: 2, Seed: 3, Duration: 30 * rt.TicksPerD}, "chan")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("check failed: %v", res.Check.Violations)
	}
	if len(res.Hist.Ops) == 0 {
		t.Fatal("empty history")
	}
}

// TestRunTransportTCP: a real TCP loopback cluster under the same faults.
func TestRunTransportTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback cluster is slow in -short mode")
	}
	res, err := RunTransport(Config{N: 5, F: 2, Seed: 3, Duration: 30 * rt.TicksPerD}, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("check failed: %v", res.Check.Violations)
	}
}

// TestConfigValidation rejects the classic mistakes.
func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{N: 4, F: 2, Duration: 1000},                   // n ≤ 2f
		{N: 6, F: 2, Engine: "byzaso", Duration: 1000}, // n ≤ 3f
		{N: 5, F: 2, Engine: "paxos", Duration: 1000},  // unknown alg
		{N: 5, F: 2}, // no duration
	} {
		if _, err := RunSim(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}
