package transport_test

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// newTestMesh is transport.NewLoopbackMesh for one test, with a 5ms D
// (conf may override it): setup errors fail the test, and the nodes close
// when it ends.
func newTestMesh(t testing.TB, n int, conf func(i int, cfg *transport.TCPConfig)) []*transport.TCPNode {
	t.Helper()
	nodes, err := transport.NewLoopbackMesh(n, func(i int, cfg *transport.TCPConfig) {
		cfg.D = 5 * time.Millisecond
		if conf != nil {
			conf(i, cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.Close()
		}
	})
	return nodes
}

// startRawMesh brings up an n-node TCP mesh with the given handlers
// installed (no protocol on top — the tests drive the transport
// directly). Reuses benchMsg from bench_test.go as the payload.
func startRawMesh(t *testing.T, handlers []rt.Handler, legacy bool) []*transport.TCPNode {
	t.Helper()
	nodes := newTestMesh(t, len(handlers), func(_ int, cfg *transport.TCPConfig) { cfg.Legacy = legacy })
	for i, h := range handlers {
		nodes[i].SetHandler(h)
	}
	return nodes
}

// fifoHandler asserts per-source FIFO delivery: each source's benchMsg
// sequence numbers must arrive in exactly the order they were sent.
type fifoHandler struct {
	mu        sync.Mutex
	next      map[int]int // src -> next expected Seq
	delivered int
	violation error
}

func (h *fifoHandler) HandleMessage(src int, msg rt.Message) {
	bm := msg.(benchMsg)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next == nil {
		h.next = map[int]int{}
	}
	if want := h.next[src]; bm.Seq != want && h.violation == nil {
		h.violation = fmt.Errorf("from src %d: got Seq %d, want %d", src, bm.Seq, want)
	}
	h.next[src] = bm.Seq + 1
	h.delivered++
}

func (h *fifoHandler) status() (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.delivered, h.violation
}

// TestTCPPerSourceFIFO is the property test for the pipelined inbound
// dispatch path: several peers concurrently blast sequence-numbered
// messages at one node, and every source's sequence must be delivered
// gap-free and in order even though framing/decode and handler execution
// now run on different goroutines. Run with -race this also exercises
// the dispatcher's publication safety.
func TestTCPPerSourceFIFO(t *testing.T) {
	const senders = 3
	const perSender = 2000
	sink := &fifoHandler{}
	handlers := make([]rt.Handler, senders+1)
	handlers[0] = sink
	for i := 1; i <= senders; i++ {
		handlers[i] = &fifoHandler{}
	}
	nodes := startRawMesh(t, handlers, false)

	var wg sync.WaitGroup
	for i := 1; i <= senders; i++ {
		rtm := nodes[i].Runtime()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Vary the payload size so frames straddle read-buffer
			// boundaries at unpredictable offsets.
			pad := []byte("0123456789abcdef0123456789abcdef")
			for seq := 0; seq < perSender; seq++ {
				rtm.Send(0, benchMsg{Seq: seq, Pad: pad[:seq%len(pad)]})
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		got, violation := sink.status()
		if violation != nil {
			t.Fatalf("FIFO violation: %v", violation)
		}
		if got == senders*perSender {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages", got, senders*perSender)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPSendBatchCapStalledReader is the regression test for the
// pending-buffer cap: a receiver that stops reading lets the sender's
// socket back up, so the send loop's gather phase sees an always-hot
// queue. The batch must be cut at maxSendBatch and handed to the
// (blocking) write instead of gathering without bound, and when the
// reader resumes every frame must arrive intact and in order — the cap
// interacts with the redial invariant (pending is cleared only after a
// successful write), so this pins down both.
//
// The peer at index 1 is not a TCPNode but a raw listener the test
// controls, which is what makes the read stall possible.
func TestTCPSendBatchCapStalledReader(t *testing.T) {
	const msgs = 2000
	pad := make([]byte, 1024) // ~2MB total: well past maxSendBatch (64KB)

	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{own.Addr().String(), fake.Addr().String()}

	type recvResult struct {
		seqs []int
		err  error
	}
	got := make(chan recvResult, 1)
	release := make(chan struct{})
	go func() {
		conn, err := fake.Accept()
		if err != nil {
			got <- recvResult{err: err}
			return
		}
		defer conn.Close()
		<-release // stall: accept the connection but read nothing yet
		r := bufio.NewReaderSize(conn, 64<<10)
		var buf []byte
		res := recvResult{}
		for len(res.seqs) < msgs {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			payload, err := wire.ReadFrame(r, buf, 0)
			if err != nil {
				res.err = err
				break
			}
			buf = payload
			msg, err := wire.Unmarshal(payload)
			if err != nil {
				res.err = err
				break
			}
			if _, ok := msg.(transport.Hello); ok {
				continue
			}
			res.seqs = append(res.seqs, msg.(benchMsg).Seq)
		}
		got <- res
	}()

	tn, err := transport.NewTCPNode(transport.TCPConfig{
		ID: 0, Addrs: addrs, F: 0, D: 5 * time.Millisecond, Listener: own,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	tn.SetHandler(&fifoHandler{})

	rtm := tn.Runtime()
	for seq := 0; seq < msgs; seq++ {
		rtm.Send(1, benchMsg{Seq: seq, Pad: pad})
	}
	// Give the send loop time to gather against the stalled socket, then
	// let the reader drain.
	time.Sleep(200 * time.Millisecond)
	close(release)

	res := <-got
	if res.err != nil {
		t.Fatalf("receiver failed after %d messages: %v", len(res.seqs), res.err)
	}
	for i, seq := range res.seqs {
		if seq != i {
			t.Fatalf("position %d: got Seq %d, want %d (reordered or dropped under the batch cap)", i, seq, i)
		}
	}
}

// TestTCPFlushTimerSolitaryFrame pins the flush timer's liveness: a
// frame with no follow-up traffic must still reach the peer once the
// coalescing window expires — the batch write may not wait for a
// successor that never comes. A generous FlushDelay makes a stuck timer
// path show up as a timeout rather than a flake.
func TestTCPFlushTimerSolitaryFrame(t *testing.T) {
	sink := &fifoHandler{}
	nodes := newTestMesh(t, 2, func(_ int, cfg *transport.TCPConfig) { cfg.FlushDelay = 50 * time.Millisecond })
	nodes[0].SetHandler(sink)
	nodes[1].SetHandler(&fifoHandler{})

	start := time.Now()
	nodes[1].Runtime().Send(0, benchMsg{Seq: 0, Pad: []byte("solo")})
	deadline := start.Add(5 * time.Second)
	for {
		if got, _ := sink.status(); got == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("solitary frame never delivered: the flush timer did not fire")
		}
		time.Sleep(time.Millisecond)
	}
}
