package transport_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"mpsnap/internal/transport"
)

// TestLoopbackMeshSetupFailureCleansUp: when one node cannot start, the
// mesh reports it and leaves nothing behind — every address refuses
// connections and no goroutine outlives the call.
func TestLoopbackMeshSetupFailureCleansUp(t *testing.T) {
	const n, dead = 3, 1
	before := runtime.NumGoroutine()
	var addrs []string
	nodes, err := transport.NewLoopbackMesh(n, func(i int, cfg *transport.TCPConfig) {
		addrs = cfg.Addrs
		// Node dead's listener is closed before it starts, so its peers
		// can never reach it and give up after a short dial budget.
		cfg.DialTimeout = 200 * time.Millisecond
		if i == dead {
			cfg.Listener.Close()
		}
	})
	if err == nil {
		for _, tn := range nodes {
			tn.Close()
		}
		t.Fatal("mesh with an unreachable node started")
	}
	for i, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("node %d's address %s still accepts connections", i, addr)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before setup, %d after its failure:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
