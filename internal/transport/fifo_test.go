package transport_test

import (
	"bufio"
	"fmt"
	"io"
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

// TestTCPPerSourceFIFO is the property test for the batched inbound
// delivery path: several peers concurrently blast sequence-numbered
// messages at one node, and every source's sequence must be delivered
// gap-free and in order while each connection's receive loop batches
// whatever frames its read buffer holds. Run with -race this also
// exercises concurrent receive loops delivering into one node.
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

// rawPeerNode starts node 0 of a two-node deployment whose node 1 is the
// test itself: node 0's outbound stream to 1 is drained and discarded, and
// the returned connection is an inbound stream into node 0, already past
// its handshake as node 1. The test writes raw frame bytes to it.
func rawPeerNode(t *testing.T, h rt.Handler) net.Conn {
	t.Helper()
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fake.Close() })
	go func() {
		for {
			c, err := fake.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tn, err := transport.NewTCPNode(transport.TCPConfig{
		ID: 0, Addrs: []string{own.Addr().String(), fake.Addr().String()},
		F: 0, D: 5 * time.Millisecond, Listener: own,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn.SetHandler(h)
	conn, err := net.Dial("tcp", tn.Addr())
	if err != nil {
		tn.Close()
		t.Fatal(err)
	}
	// Close the dialed end first: the node's receive loop for it ends only
	// when the stream does.
	t.Cleanup(func() { conn.Close(); tn.Close() })
	hello, err := wire.MarshalFrame(transport.Hello{ID: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	return conn
}

func benchFrame(t *testing.T, seq int) []byte {
	t.Helper()
	f, err := wire.MarshalFrame(benchMsg{Seq: seq, Pad: []byte("split-frame-padding")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitDelivered waits until h has delivered want messages in order.
func waitDelivered(t *testing.T, h *fifoHandler, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, violation := h.status()
		if violation != nil {
			t.Fatalf("%s: FIFO violation: %v", what, violation)
		}
		if got == want {
			return
		}
		if got > want || time.Now().After(deadline) {
			t.Fatalf("%s: delivered %d messages, want %d", what, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPFramesAheadOfPartialFrameDelivered: the receive loop batches the
// complete frames in its read buffer, and a partial frame behind them ends
// the batch. The complete frames must reach the handler before the rest
// of the partial frame is even sent — a batch waiting for those bytes
// would stall the protocol on a sender that has nothing more to say.
func TestTCPFramesAheadOfPartialFrameDelivered(t *testing.T) {
	sink := &fifoHandler{}
	conn := rawPeerNode(t, sink)
	third := benchFrame(t, 2)
	var b []byte
	b = append(b, benchFrame(t, 0)...)
	b = append(b, benchFrame(t, 1)...)
	b = append(b, third[:wire.HeaderLen+2]...)
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, sink, 2, "frames ahead of the partial one")
	time.Sleep(20 * time.Millisecond)
	if got, _ := sink.status(); got != 2 {
		t.Fatalf("delivered %d messages from two and a half frames", got)
	}
	if _, err := conn.Write(third[wire.HeaderLen+2:]); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, sink, 3, "the completed frame")
}

// TestTCPFrameWrittenInTwoHalves: a frame split across two writes, cut
// inside its header or inside its payload, is delivered exactly once, and
// only when its last byte has arrived.
func TestTCPFrameWrittenInTwoHalves(t *testing.T) {
	frame := benchFrame(t, 0)
	for _, cut := range []int{2, wire.HeaderLen, wire.HeaderLen + 3, len(frame) - 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			sink := &fifoHandler{}
			conn := rawPeerNode(t, sink)
			if _, err := conn.Write(frame[:cut]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			if got, _ := sink.status(); got != 0 {
				t.Fatalf("delivered %d messages before the frame was complete", got)
			}
			if _, err := conn.Write(frame[cut:]); err != nil {
				t.Fatal(err)
			}
			waitDelivered(t, sink, 1, "the completed frame")
			// A second, whole frame right behind it proves the stream
			// stayed in sync across the split.
			if _, err := conn.Write(benchFrame(t, 1)); err != nil {
				t.Fatal(err)
			}
			waitDelivered(t, sink, 2, "the frame after the split one")
		})
	}
}
