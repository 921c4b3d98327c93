package harness_test

import (
	"strings"
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

func build(cfg sim.Config) *harness.Cluster {
	return harness.Build(cfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := eqaso.New(r)
		return nd, nd
	})
}

func TestOpRunnerRecordsHistory(t *testing.T) {
	c := build(sim.Config{N: 3, F: 1, Seed: 1})
	c.Client(0, func(o *harness.OpRunner) {
		if o.Node() != 0 {
			t.Errorf("node = %d", o.Node())
		}
		v1, err := o.Update()
		if err != nil || v1 != "v0-1" {
			t.Errorf("update: %q, %v", v1, err)
		}
		v2, err := o.Update()
		if err != nil || v2 != "v0-2" {
			t.Errorf("update: %q, %v", v2, err)
		}
		snap, err := o.Scan()
		if err != nil || snap[0] != "v0-2" {
			t.Errorf("scan: %v, %v", snap, err)
		}
		if o.Object() == nil {
			t.Error("raw object must be accessible")
		}
	})
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Ops); got != 3 {
		t.Fatalf("recorded %d ops, want 3", got)
	}
	st := harness.Latencies(h)
	if st.Count != 3 || st.WorstUpdate <= 0 || st.WorstScan <= 0 {
		t.Fatalf("latencies: %+v", st)
	}
	if st.MeanAll <= 0 || st.MeanUpdate <= 0 || st.MeanScan <= 0 {
		t.Fatalf("means: %+v", st)
	}
}

func TestSnapStrings(t *testing.T) {
	got := harness.SnapStrings([][]byte{[]byte("a"), nil, {}})
	if got[0] != "a" || got[1] != history.NoValue || got[2] != "" {
		t.Fatalf("SnapStrings = %q", got)
	}
}

func TestMustLinearizableReportsViolations(t *testing.T) {
	// A broken "object" that loses updates: MustLinearizable must fail
	// with a descriptive error.
	type brokenObj struct{ n int }
	var _ = brokenObj{}
	c := harness.Build(sim.Config{N: 2, F: 0, Seed: 1}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		return rt.HandlerFunc(func(int, rt.Message) {}), lossyObject{n: r.N()}
	})
	c.Client(0, func(o *harness.OpRunner) {
		_, _ = o.Update()
		_ = o.P.Sleep(10) // separate in time: the update precedes the scan
		_, _ = o.Scan()   // returns all-⊥, losing the preceding update
	})
	_, err := c.MustLinearizable()
	if err == nil || !strings.Contains(err.Error(), "not linearizable") {
		t.Fatalf("err = %v, want linearizability failure", err)
	}
}

// lossyObject acknowledges updates without storing them.
type lossyObject struct{ n int }

func (l lossyObject) Update(p []byte) error { return nil }
func (l lossyObject) Scan() ([][]byte, error) {
	return make([][]byte, l.n), nil
}

func TestLatenciesSkipsPendingOps(t *testing.T) {
	rec := history.NewRecorder(2)
	p := rec.BeginUpdate(0, "x", 0)
	p.End(100)
	rec.BeginUpdate(1, "y", 50) // never completes
	st := harness.Latencies(rec.History())
	if st.Count != 1 {
		t.Fatalf("count = %d, want 1 (pending excluded)", st.Count)
	}
}
