package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"mpsnap/internal/svc"
)

// history builds a single-session record set by hand: updates commit in
// the order they are added, per node.
type history struct {
	n       int
	s       *session
	commits [][]uint64
}

func newHistory(n int) *history {
	return &history{n: n, s: &session{}, commits: make([][]uint64, n)}
}

// update adds a completed update of node over [issue, done] and returns
// its id.
func (h *history) update(node int, issue, done uint32) uint64 {
	id := opID(0, len(h.s.recs))
	h.s.recs = append(h.s.recs, opRec{issue: issue, done: done, node: uint8(node), flags: fDone | fWindow})
	h.commits[node] = append(h.commits[node], id)
	return id
}

// scan adds a completed scan over [issue, done] returning ids (0 = ⊥).
func (h *history) scan(issue, done uint32, ids ...uint64) {
	r := opRec{issue: issue, done: done, flags: fScan | fDone | fWindow, slot: int32(len(h.s.segs) / h.n)}
	if len(ids) != h.n {
		r.flags |= fBadShape
		ids = make([]uint64, h.n)
	}
	h.s.recs = append(h.s.recs, r)
	h.s.segs = append(h.s.segs, ids...)
}

func (h *history) check() violations { return check(h.n, []*session{h.s}, h.commits) }

func TestCheckerAcceptsLinearizableHistory(t *testing.T) {
	h := newHistory(2)
	a0 := h.update(0, 0, 10)
	b0 := h.update(1, 0, 10)
	h.scan(2, 8, 0, b0) // concurrent with a0: ⊥ is allowed
	h.scan(20, 30, a0, b0)
	a1 := h.update(0, 40, 50)
	h.scan(45, 48, a0, b0) // concurrent with a1
	h.scan(60, 70, a1, b0)
	// (⊥, b0) lies below (a0, b0) even though the commit index of a0 is
	// 0; ordering by index sum must count ⊥ below index 0.
	if v := h.check(); v.total() != 0 || v.ops != 0 {
		t.Fatalf("clean history reported %v (%s)", v, v.first)
	}
}

func TestCheckerReportsEachClass(t *testing.T) {
	cases := []struct {
		name  string
		build func(h *history)
		class func(v violations) int
	}{
		{"shape", func(h *history) {
			h.update(0, 0, 10)
			h.scan(20, 30, 0) // one segment short
		}, func(v violations) int { return v.shape }},
		{"forged value", func(h *history) {
			h.update(0, 0, 10)
			h.scan(20, 30, opID(7, 3), 0) // no op has this id
		}, func(v violations) int { return v.validity }},
		{"value of another segment", func(h *history) {
			b := h.update(1, 0, 10)
			h.scan(20, 30, b, b)
		}, func(v violations) int { return v.validity }},
		{"A2 stale segment", func(h *history) {
			a0 := h.update(0, 0, 10)
			h.update(0, 12, 18)
			h.scan(20, 30, a0, 0) // misses the second completed update
		}, func(v violations) int { return v.a2 }},
		{"A3 regression", func(h *history) {
			a0 := h.update(0, 0, 100) // still in flight during both scans
			h.scan(20, 30, a0, 0)
			h.scan(40, 50, 0, 0)
		}, func(v violations) int { return v.a3 }},
		{"A1 incomparable", func(h *history) {
			a0 := h.update(0, 0, 100)
			b0 := h.update(1, 0, 100)
			h.scan(10, 20, a0, 0)
			h.scan(10, 20, 0, b0)
		}, func(v violations) int { return v.a1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHistory(2)
			c.build(h)
			v := h.check()
			if c.class(v) != 1 || v.total() != 1 || v.ops != 1 {
				t.Fatalf("want exactly one violation of this class, got %v (ops=%d)", v, v.ops)
			}
		})
	}
}

// faulty wraps an engine and corrupts some of its snapshots.
type faulty struct {
	svc.BatchObject
	node   int
	past   [][][]byte // every snapshot the engine returned, oldest first
	mangle func(f *faulty, snap [][]byte) [][]byte
}

func (f *faulty) Scan() ([][]byte, error) {
	snap, err := f.BatchObject.Scan()
	if err != nil {
		return nil, err
	}
	f.past = append(f.past, snap)
	return f.mangle(f, append([][]byte(nil), snap...)), nil
}

// ago returns the snapshot k scans back, or nil.
func (f *faulty) ago(k int) [][]byte {
	if len(f.past) <= k {
		return nil
	}
	return f.past[len(f.past)-1-k]
}

// TestCheckerCatchesFaultyEngines runs the real mesh with a wrapper that
// returns stale or forged segments and expects the matching class.
func TestCheckerCatchesFaultyEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the TCP mesh")
	}
	cases := []struct {
		name   string
		mangle func(f *faulty, snap [][]byte) [][]byte
		class  func(v violations) int
	}{
		{"shape", func(f *faulty, s [][]byte) [][]byte {
			if len(f.past)%4 == 0 {
				return s[:len(s)-1]
			}
			return s
		}, func(v violations) int { return v.shape }},
		{"forged segment", func(f *faulty, s [][]byte) [][]byte {
			if len(f.past)%4 == 0 {
				s[f.node] = makePayload(f.node, opID(1000, 1))
			}
			return s
		}, func(v violations) int { return v.validity }},
		{"A2 stale snapshot", func(f *faulty, s [][]byte) [][]byte {
			if f.node == 0 && len(f.past) > 20 {
				return f.past[20] // frozen from the 21st scan on
			}
			return s
		}, func(v violations) int { return v.a2 }},
		{"A3 older snapshot", func(f *faulty, s [][]byte) [][]byte {
			if old := f.ago(10); old != nil && len(f.past)%3 == 0 {
				return old
			}
			return s
		}, func(v violations) int { return v.a3 }},
		{"A1 mixed segments", func(f *faulty, s [][]byte) [][]byte {
			if old := f.ago(20); old != nil && f.node < 2 {
				s[f.node] = old[f.node]
			}
			return s
		}, func(v violations) int { return v.a1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := workload{name: "faulty", engine: "acr", sessions: 16, scanPct: 40,
				wrap: func(node int, obj svc.BatchObject) svc.BatchObject {
					return &faulty{BatchObject: obj, node: node, mangle: c.mangle}
				}}
			p, err := runPass(w, 1, 300*time.Millisecond, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			if c.class(p.viol) == 0 {
				t.Fatalf("fault not reported as its class: %v", p.viol)
			}
		})
	}
}

// TestCheckerCleanRun runs every engine path of the benchmark briefly and
// expects no violation.
func TestCheckerCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the TCP mesh")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := runPass(w, 1, 300*time.Millisecond, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			if p.viol.total() != 0 || p.failed != 0 {
				t.Fatalf("violations %v (%s), failed %d", p.viol, p.viol.first, p.failed)
			}
			if p.endToEnd().windowOps == 0 {
				t.Fatal("no op completed in the window")
			}
		})
	}
}

// TestMeshTeardownRightAfterSetup tears meshes down as soon as they are
// up, as the set-up measurement does. A node whose accept loop is still
// taking in a peer's connection then leaves a reader that only the peer's
// Close ends, so closing the nodes one by one could hang.
func TestMeshTeardownRightAfterSetup(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 1000; i++ {
			m, err := newMesh(meshConfig{engine: "acr", n: meshN, f: meshF})
			if err != nil {
				done <- err
				return
			}
			m.close()
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("a mesh teardown hung")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// and workloads perfbench emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var resolved []named
	for _, m := range e2eUnits {
		if m.resolved {
			resolved = append(resolved, named{m.name, m.unit})
		}
	}
	if len(b.EndToEnd) != len(resolved) {
		t.Errorf("end_to_end lists %d metrics, perfbench emits %d", len(b.EndToEnd), len(resolved))
	}
	for i, m := range b.EndToEnd {
		if i < len(resolved) && m != resolved[i] {
			t.Errorf("end_to_end[%d] = %v, perfbench emits %v", i, m, resolved[i])
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("per_layer lists %d metrics, perfbench emits %d", len(b.PerLayer), len(layerUnits))
	}
	for i, m := range b.PerLayer {
		if i < len(layerUnits) && (m.Name != layerUnits[i].name || m.Unit != layerUnits[i].unit) {
			t.Errorf("per_layer[%d] = %s (%s), perfbench emits %s (%s)", i, m.Name, m.Unit, layerUnits[i].name, layerUnits[i].unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
}
