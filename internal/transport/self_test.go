package transport_test

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPSelfSendFIFO: self-sends issued from a client goroutine and from
// inside handlers (which run under the node lock) are delivered in
// exactly the order they were sent. Every send takes its sequence number
// under the node lock, so the send order is the sequence order.
func TestTCPSelfSendFIFO(t *testing.T) {
	const clientSends = 5000
	var (
		rtm       rt.Runtime
		next      int // next sequence number to send; node lock
		expect    int // next sequence number to deliver; node lock
		violation error
		delivered atomic.Int64
	)
	send := func(origin string) {
		rtm.Send(0, benchMsg{Seq: next, Pad: []byte(origin)})
		next++
	}
	h := rt.HandlerFunc(func(src int, msg rt.Message) {
		bm := msg.(benchMsg)
		if bm.Seq != expect && violation == nil {
			violation = fmt.Errorf("self-delivery %d: got Seq %d", expect, bm.Seq)
		}
		expect = bm.Seq + 1
		// Every other client message triggers a send from the handler,
		// interleaving with the client's stream.
		if string(bm.Pad) == "client" && bm.Seq%2 == 0 {
			send("handler")
		}
		delivered.Add(1)
	})
	nodes := startRawMesh(t, []rt.Handler{h, &fifoHandler{}, &fifoHandler{}}, false)
	rtm = nodes[0].Runtime()

	handlerSends := 0
	for i := 0; i < clientSends; i++ {
		rtm.Atomic(func() {
			if next%2 == 0 {
				handlerSends++ // the handler will answer this one
			}
			send("client")
		})
	}
	total := int64(clientSends + handlerSends)
	waitFor(t, "self-deliveries", func() bool { return delivered.Load() == total })
	var err error
	rtm.Atomic(func() { err = violation })
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPSelfRebroadcastChain: a handler that answers each of its own
// messages with another broadcast runs a 10k-message chain to the end.
// The handler runs under the node lock and sends to itself, so a
// self-delivery that ran inline or blocked on the queue would deadlock.
func TestTCPSelfRebroadcastChain(t *testing.T) {
	const chain = 10000
	var rtm rt.Runtime
	got := 0 // node lock
	h := rt.HandlerFunc(func(src int, msg rt.Message) {
		if src != 0 {
			return
		}
		got++
		if seq := msg.(benchMsg).Seq; seq < chain {
			rtm.Broadcast(benchMsg{Seq: seq + 1})
		}
	})
	nodes := startRawMesh(t, []rt.Handler{h, &fifoHandler{}, &fifoHandler{}}, false)
	rtm = nodes[0].Runtime()
	rtm.Broadcast(benchMsg{Seq: 1})

	done := make(chan error, 1)
	go func() {
		done <- rtm.WaitUntilThen("chain", func() bool { return got == chain }, func() {})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("self-broadcast chain stalled")
	}
}

// msgLog is a concurrency-safe rt.Observer recording message events.
type msgLog struct {
	mu  sync.Mutex
	evs []rt.MsgEvent
}

func (l *msgLog) OnOp(rt.OpEvent) {}

func (l *msgLog) OnMsg(ev rt.MsgEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// self returns the send and delivery events on node id's self channel.
func (l *msgLog) self(id int) (sends, delivers []rt.MsgEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.evs {
		if ev.Src != id || ev.Dst != id {
			continue
		}
		switch ev.Event {
		case rt.MsgSend:
			sends = append(sends, ev)
		case rt.MsgDeliver:
			delivers = append(delivers, ev)
		}
	}
	return sends, delivers
}

// TestTCPSelfCrash: once a node crashes, queued and later self-messages
// never reach its handler, and a blocked wait returns rt.ErrCrashed.
func TestTCPSelfCrash(t *testing.T) {
	log := &msgLog{}
	var handled atomic.Int64
	h := rt.HandlerFunc(func(int, rt.Message) { handled.Add(1) })
	nodes := newTestMesh(t, 3, func(i int, cfg *transport.TCPConfig) {
		if i == 0 {
			cfg.Observer = log
		}
	})
	nodes[0].SetHandler(h)
	rtm := nodes[0].Runtime()

	const before, after = 100, 1000
	for i := 0; i < before; i++ {
		rtm.Send(0, benchMsg{Seq: i})
	}
	waitFor(t, "pre-crash deliveries", func() bool { return handled.Load() == before })

	blocked := make(chan error, 1)
	go func() {
		blocked <- rtm.WaitUntilThen("never", func() bool { return false }, func() {})
	}()
	nodes[0].Crash()
	select {
	case err := <-blocked:
		if !errors.Is(err, rt.ErrCrashed) {
			t.Fatalf("blocked wait returned %v, want rt.ErrCrashed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked wait did not return after Crash")
	}

	for i := 0; i < after; i++ {
		rtm.Send(0, benchMsg{Seq: before + i})
	}
	// The dispatcher observes each self-message just before handing its
	// batch to the (crashed) node; give the last batch time to land.
	waitFor(t, "post-crash dispatch", func() bool {
		_, d := log.self(0)
		return len(d) == before+after
	})
	time.Sleep(50 * time.Millisecond)
	if n := handled.Load(); n != before {
		t.Fatalf("handler ran %d times, want %d: self-messages reached a crashed node", n, before)
	}
}

// TestTCPSelfObserver: every self-send is matched by one delivery event
// on the same channel, in send order, with the same kind and size — the
// pairing a tracer uses to time the k-th send against the k-th delivery.
func TestTCPSelfObserver(t *testing.T) {
	const msgs = 500
	log := &msgLog{}
	nodes := newTestMesh(t, 3, func(i int, cfg *transport.TCPConfig) { cfg.Observer = log })
	for _, tn := range nodes {
		tn.SetHandler(&fifoHandler{})
	}
	rtm := nodes[0].Runtime()
	pad := make([]byte, 64)
	for i := 0; i < msgs; i++ {
		rtm.Broadcast(benchMsg{Seq: i, Pad: pad[:i%len(pad)]})
	}
	waitFor(t, "self-deliveries", func() bool {
		_, d := log.self(0)
		return len(d) == msgs
	})
	sends, delivers := log.self(0)
	if len(sends) != msgs {
		t.Fatalf("%d self-send events, want %d", len(sends), msgs)
	}
	for k := range sends {
		s, d := sends[k], delivers[k]
		want := wire.EncodedSize(benchMsg{Seq: k, Pad: pad[:k%len(pad)]})
		if s.Kind != "benchMsg" || d.Kind != s.Kind || s.Bytes != want || d.Bytes != want {
			t.Fatalf("self event %d: send %s/%dB, deliver %s/%dB, want benchMsg/%dB",
				k, s.Kind, s.Bytes, d.Kind, d.Bytes, want)
		}
		if d.T < s.T {
			t.Fatalf("self event %d delivered at %d before its send at %d", k, d.T, s.T)
		}
	}
}

// helloListener records, for each accepted connection, the first bytes
// the node reads from it: the dialer's Hello frame.
type helloListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*helloConn
}

func (l *helloListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hc := &helloConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, hc)
	l.mu.Unlock()
	return hc, nil
}

// hellos returns the Hello IDs read so far, one per accepted connection
// (-1 while a connection's Hello has not been read in full).
func (l *helloListener) hellos() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]int, len(l.conns))
	for i, c := range l.conns {
		ids[i] = c.hello()
	}
	return ids
}

type helloConn struct {
	net.Conn
	mu   sync.Mutex
	head []byte
}

func (c *helloConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	if len(c.head) < 64 {
		c.head = append(c.head, p[:n]...)
	}
	c.mu.Unlock()
	return n, err
}

func (c *helloConn) hello() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, _, err := wire.ParseFrame(c.head, 0)
	if err != nil {
		return -1
	}
	m, err := wire.Unmarshal(payload)
	if err != nil {
		return -1
	}
	h, ok := m.(transport.Hello)
	if !ok {
		return -1
	}
	return h.ID
}

// TestTCPMeshConnections: a tuned n-node mesh opens exactly n(n-1)
// connections, none of them a node's connection to itself; a Legacy mesh
// keeps the seed's n*n, one self-connection per node.
func TestTCPMeshConnections(t *testing.T) {
	const n = 4
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			lns := make([]*helloListener, n)
			newTestMesh(t, n, func(i int, cfg *transport.TCPConfig) {
				lns[i] = &helloListener{Listener: cfg.Listener}
				cfg.Listener = lns[i]
				cfg.Legacy = legacy
			})
			// Every node hears from each other node once; under Legacy
			// also from itself.
			want := make([][]int, n)
			for i := range want {
				for j := 0; j < n; j++ {
					if j != i || legacy {
						want[i] = append(want[i], j)
					}
				}
			}
			for i, ln := range lns {
				waitFor(t, fmt.Sprintf("node %d's hellos", i), func() bool {
					ids := ln.hellos()
					return len(ids) >= len(want[i]) && !slices.Contains(ids, -1)
				})
			}
			// Setup is over: an extra connection would have been accepted.
			time.Sleep(20 * time.Millisecond)
			for i, ln := range lns {
				ids := ln.hellos()
				slices.Sort(ids)
				if !slices.Equal(ids, want[i]) {
					t.Errorf("node %d accepted connections from %v, want %v", i, ids, want[i])
				}
			}
		})
	}
}

// TestTCPSelfHandshakeRefused: a stream claiming the node's own ID is
// closed and reported, so nothing can interleave with the local
// self-delivery queue.
func TestTCPSelfHandshakeRefused(t *testing.T) {
	nodes := newTestMesh(t, 2, nil)
	rogue := dialRaw(t, nodes[0].Addr(), 0)
	defer rogue.Close()
	waitForError(t, nodes[0].Errors, "claims this node's id 0")
	rogue.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := rogue.Read(make([]byte, 1)); err == nil {
		t.Fatal("self-claiming connection still open")
	}
}

// TestTCPSequentialCloseRightAfterSetup: closing a freshly built mesh's
// nodes one after another never hangs. A node's accept loop may still be
// taking in a peer's connection when NewTCPNode returns; Close must shut
// that connection too rather than wait for a reader that only the peer's
// own (later) Close would end.
func TestTCPSequentialCloseRightAfterSetup(t *testing.T) {
	const n = 4
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	hung := 0
	for r := 0; r < rounds; r++ {
		nodes, err := transport.NewLoopbackMesh(n, nil)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		// Once-wrapped: the recovery below may race the sequence on a node.
		closers := make([]func(), n)
		for i, tn := range nodes {
			closers[i] = sync.OnceFunc(tn.Close)
		}
		done := make(chan struct{})
		go func() {
			for _, c := range closers {
				c()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			// A Close hung. Close the rest concurrently (ending the hung
			// reader's stream) so the next round starts clean.
			hung++
			for _, c := range closers {
				go c()
			}
			<-done
		}
	}
	if hung > 0 {
		t.Fatalf("%d of %d sequential teardowns hung", hung, rounds)
	}
}
