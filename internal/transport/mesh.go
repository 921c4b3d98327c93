package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// NewLoopbackMesh brings up an n-node TCP mesh inside this process: every
// listener binds 127.0.0.1:0 first, so all addresses are known before any
// node dials, then the nodes start concurrently (NewTCPNode returns only
// once it has reached every peer). All nodes share one Epoch, so their
// Now() readings are comparable. conf, if set, adjusts node i's config
// before it starts (F, D, Observer, ...). If any node fails to start,
// every node and listener is closed and the first error is returned;
// otherwise the caller closes the nodes.
func NewLoopbackMesh(n int, conf func(i int, cfg *TCPConfig)) ([]*TCPNode, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	epoch := time.Now()
	nodes := make([]*TCPNode, n)
	errs := make([]error, n)
	var setup sync.WaitGroup
	for i := range nodes {
		cfg := TCPConfig{ID: i, Addrs: addrs, Listener: listeners[i], Epoch: epoch}
		if conf != nil {
			conf(i, &cfg)
		}
		setup.Add(1)
		go func(i int) {
			defer setup.Done()
			nodes[i], errs[i] = NewTCPNode(cfg)
		}(i)
	}
	setup.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		for _, tn := range nodes {
			if tn != nil {
				tn.Close()
			}
		}
		// A node that failed early may not have taken its listener over.
		for _, l := range listeners {
			l.Close()
		}
		return nil, fmt.Errorf("transport: node %d setup: %w", i, err)
	}
	return nodes, nil
}
