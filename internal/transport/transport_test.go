package transport_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
)

// runRealTimeWorkload drives an EQ-ASO cluster whose nodes expose real
// goroutine-based runtimes: every node updates and scans concurrently,
// and the recorded history must be linearizable.
func runRealTimeWorkload(t *testing.T, nodes []*eqaso.Node, now func(i int) rt.Ticks, n int) {
	t.Helper()
	rec := history.NewRecorder(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 3; k++ {
				v := fmt.Sprintf("v%d-%d", i, k)
				p := rec.BeginUpdate(i, v, now(i))
				if err := nodes[i].Update([]byte(v)); err != nil {
					t.Errorf("node %d update: %v", i, err)
					return
				}
				p.End(now(i))
				ps := rec.BeginScan(i, now(i))
				snap, err := nodes[i].Scan()
				if err != nil {
					t.Errorf("node %d scan: %v", i, err)
					return
				}
				ps.EndScan(harness.SnapStrings(snap), now(i))
				if got := harness.SnapStrings(snap)[i]; got != v {
					t.Errorf("node %d scan misses own value: got %q want %q", i, got, v)
				}
			}
		}()
	}
	wg.Wait()
	h := rec.History()
	if rep := h.CheckLinearizable(); !rep.OK {
		t.Fatalf("real-time history not linearizable: %v", rep.Violations[0])
	}
}

func TestChanNetEQASO(t *testing.T) {
	const n, f = 4, 1
	net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 1})
	defer net.Close()
	nodes := make([]*eqaso.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = eqaso.New(net.Runtime(i))
		net.SetHandler(i, nodes[i])
	}
	runRealTimeWorkload(t, nodes, func(i int) rt.Ticks { return net.Runtime(i).Now() }, n)
}

func TestChanNetCrash(t *testing.T) {
	const n, f = 4, 1
	cnet := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 2})
	defer cnet.Close()
	nodes := make([]*eqaso.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = eqaso.New(cnet.Runtime(i))
		cnet.SetHandler(i, nodes[i])
	}
	cnet.Crash(3)
	// A crashed node's operations fail; the rest keep working.
	if err := nodes[3].Update([]byte("x")); err == nil {
		t.Fatal("update on crashed node should fail")
	}
	if err := nodes[0].Update([]byte("a")); err != nil {
		t.Fatalf("update: %v", err)
	}
	snap, err := nodes[1].Scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if string(snap[0]) != "a" {
		t.Fatalf("scan = %v", harness.SnapStrings(snap))
	}
}

func TestTCPEQASO(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 4, 1
	// The mesh gives all nodes one clock zero: the history orders
	// operations across nodes by their Now() readings, and per-node zeros
	// would turn setup skew into false real-time order.
	tnodes := newTestMesh(t, n, func(_ int, cfg *transport.TCPConfig) { cfg.F = f })
	nodes := make([]*eqaso.Node, n)
	for i, tn := range tnodes {
		nodes[i] = eqaso.New(tn.Runtime())
		tn.SetHandler(nodes[i])
	}
	runRealTimeWorkload(t, nodes, func(i int) rt.Ticks { return tnodes[i].Runtime().Now() }, n)
}
