// A real-network deployment in one process: four EQ-ASO nodes talk over
// actual TCP loopback connections (the same transport cmd/asonode uses,
// wired up by transport.NewLoopbackMesh), with real wall-clock latencies
// and true parallelism. Shows that the algorithm code is
// transport-agnostic: this is the exact code path the simulator verifies,
// now on the kernel's sockets.
//
// Run with: go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/transport"
)

func main() {
	const n, f = 4, 1

	// Bring up the full mesh: transport.NewLoopbackMesh binds every
	// listener on an ephemeral port first, then starts the nodes
	// concurrently (each handshakes with every peer).
	nodes, err := transport.NewLoopbackMesh(n, func(_ int, cfg *transport.TCPConfig) {
		cfg.F, cfg.D = f, 5*time.Millisecond
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, tn := range nodes {
			tn.Close()
		}
	}()
	fmt.Println("cluster addresses:")
	objs := make([]*eqaso.Node, n)
	for i, tn := range nodes {
		fmt.Printf("  node %d: %s\n", i, tn.Addr())
		objs[i] = eqaso.New(tn.Runtime())
		tn.SetHandler(objs[i])
	}

	// Concurrent clients on every node.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if err := objs[i].Update([]byte(fmt.Sprintf("from-node-%d", i))); err != nil {
				log.Fatalf("node %d update: %v", i, err)
			}
			fmt.Printf("node %d: update done in %v\n", i, time.Since(start).Round(time.Microsecond))
		}()
	}
	wg.Wait()

	start := time.Now()
	snap, err := objs[0].Scan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnode 0's atomic snapshot (scan took %v):\n", time.Since(start).Round(time.Microsecond))
	for seg, v := range snap {
		fmt.Printf("  segment %d: %s\n", seg, v)
	}
}
