package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// Hello is the per-connection handshake: the first frame on every
// connection carries the dialer's node ID, which is what attributes all
// subsequent frames on that connection to a source (frames themselves
// carry no source field).
type Hello struct{ ID int }

// Kind implements rt.Message.
func (Hello) Kind() string { return "transportHello" }

// Wire tag 2 (see DESIGN.md, wire format section).
func init() {
	wire.Register(wire.Codec{
		Tag: 2, Proto: Hello{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutInt(m.(Hello).ID) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return Hello{ID: d.Int()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return Hello{ID: rng.Intn(64)} },
	})
}

// TCPConfig parameterizes one TCP node.
type TCPConfig struct {
	// ID is this node's index into Addrs.
	ID int
	// Addrs lists every node's listen address ("host:port"), index =
	// node ID. len(Addrs) = n.
	Addrs []string
	// F is the resilience bound.
	F int
	// D is the real-time duration reported as one rt.TicksPerD when
	// converting wall-clock time to ticks (default 10ms). It does not
	// delay messages — real network latency applies.
	D time.Duration
	// DialTimeout bounds the total time spent connecting to each peer
	// (default 10s).
	DialTimeout time.Duration
	// MaxFrame caps the wire frame size on both encode and decode
	// (default wire.DefaultMaxFrame). A corrupt length prefix can never
	// allocate more than this.
	MaxFrame int
	// OnError, if set, is invoked (from a transport goroutine) whenever a
	// peer connection is dropped because its byte stream failed to decode
	// — a framing error, an unknown tag, a malformed body. The peer index
	// is -1 if the connection failed before identifying itself. Only that
	// connection is affected; the rest of the mesh keeps running. When
	// nil, errors are recorded and retrievable via Errors.
	OnError func(peer int, err error)
	// Listener, if set, is used instead of listening on Addrs[ID]
	// (NewLoopbackMesh binds every node's 127.0.0.1:0 listener this way
	// before any node starts, so all real addresses are known up front).
	Listener net.Listener
	// Epoch, if set, is the time-zero Now() measures ticks from instead
	// of the node's construction instant. Deployments whose protocol
	// compares timestamps across nodes (e.g. cluster cut frontiers) must
	// share one epoch, or per-node construction skew shows up as clock
	// skew; for nodes in one process, pass the same time.Time to all.
	Epoch time.Time
	// Legacy selects the pre-optimization hot path (serial inline
	// dispatch, per-frame socket writes, no flush coalescing, self-sends
	// through a loopback connection to the node's own listener). Kept so
	// wall-clock bake-offs can measure the optimized path against the
	// original one inside the same binary.
	Legacy bool
	// FlushDelay is the outbound coalescing window: after encoding a
	// frame with no successor already queued, the send loop waits up to
	// this long for more frames before handing the batch to the socket,
	// so coalescing no longer depends on the len(queue)>0 race alone.
	// 0 means the 5µs default; negative disables the timer (every
	// drained batch is written immediately). Ignored under Legacy.
	FlushDelay time.Duration
	// Observer, if set, receives a rt.MsgEvent for every outbound send,
	// inbound delivery, and corrupt inbound stream. It is called from
	// client and receive goroutines concurrently, so it must be
	// concurrency-safe and non-blocking (internal/obs implementations
	// are).
	Observer rt.Observer
}

// TCPNode is a node of a TCP-connected deployment. TCP's in-order
// delivery provides the FIFO channel property; reliability holds as long
// as connections stay up. A node's messages to itself never touch a
// socket: they enter an in-process FIFO queue drained by the same kind of
// per-source dispatcher as remote traffic (under Legacy the node still
// dials its own listener, as the seed did). When a peer's connection
// dies, the send loop redials with backoff and resumes on the fresh
// connection: frames the send loop had batched but not yet written to a
// socket are resent in order, so a transient reset between two live
// processes does not open a FIFO gap; frames already written to the dead
// socket are the in-flight loss of the crash model — the crashed-receiver
// semantics crash-recovery deployments (`asonode -wal`) repair on rejoin
// — but the mesh heals, so a restarted process receives the replies it
// is owed. The transport never re-delivers frames it knows a socket
// accepted.
type TCPNode struct {
	node
	cfg TCPConfig

	listener net.Listener
	start    time.Time

	// outs[peer] is peer's outbound queue. On the tuned path outs[ID] is
	// the self-delivery queue, which disp[ID] drains straight into the
	// handler; every other queue feeds a sendLoop.
	outs []chan rt.Message

	// stale[peer] is set when peer's inbound stream ends: the process
	// behind it is gone, so our outbound connection is doomed even though
	// the kernel may still accept a write or two. The send loop checks it
	// before each frame and redials first, instead of losing the frame to
	// a dead socket.
	stale []atomic.Bool

	// disp[src] is the per-source FIFO dispatcher decoupling socket
	// reads from handler execution (nil until the first inbound frame
	// from src; see dispatchLoop). Guarded by dispMu.
	dispMu sync.Mutex
	disp   []*dispatcher

	connsMu sync.Mutex
	conns   []net.Conn

	acceptedMu sync.Mutex
	accepted   []net.Conn

	errMu sync.Mutex
	errs  []error

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewTCPNode starts listening, connects to every other node, and returns
// once all its outbound connections are up (a peer's connection to this
// node may still be arriving). Peers must be started within DialTimeout
// of each other. An n-node tuned mesh has n(n-1) connections; a Legacy
// one has n*n, its self-connections included.
func NewTCPNode(cfg TCPConfig) (*TCPNode, error) {
	if cfg.D == 0 {
		cfg.D = 10 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	n := len(cfg.Addrs)
	if cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("transport: id %d out of range", cfg.ID)
	}
	start := cfg.Epoch
	if start.IsZero() {
		start = time.Now()
	}
	t := &TCPNode{
		cfg:    cfg,
		start:  start,
		outs:   make([]chan rt.Message, n),
		stale:  make([]atomic.Bool, n),
		disp:   make([]*dispatcher, n),
		conns:  make([]net.Conn, n),
		closed: make(chan struct{}),
	}
	t.init()
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.ID], err)
		}
	}
	t.listener = ln
	if !cfg.Legacy {
		// Self-delivery: queued like any outbound frame, handed to the
		// handler like any inbound one, with no encode, socket or decode
		// in between. Started before the accept loop so disp[ID] is never
		// written while a receiver may read disp.
		d := &dispatcher{ch: make(chan rt.Message, outQueue)}
		t.disp[cfg.ID] = d
		t.outs[cfg.ID] = d.ch
		t.wg.Add(1)
		go t.dispatchLoop(cfg.ID, d)
	}

	// Accept inbound connections: each peer dials us once and sends a
	// hello frame; we then read frames from it until the stream ends or
	// fails to decode.
	t.wg.Add(1)
	go t.acceptLoop()

	// Dial every peer. Legacy also dials itself, so its self-sends take
	// the loopback like any other frame.
	deadline := time.Now().Add(cfg.DialTimeout)
	for peer := 0; peer < n; peer++ {
		if peer == cfg.ID && !cfg.Legacy {
			continue
		}
		conn, err := dialUntil(cfg.Addrs[peer], deadline)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: node %d unreachable at %s (retried with backoff for %v): %w",
				peer, cfg.Addrs[peer], cfg.DialTimeout, err)
		}
		frame, err := wire.MarshalFrame(Hello{ID: cfg.ID}, cfg.MaxFrame)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: encode handshake: %w", err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: handshake with node %d: %w", peer, err)
		}
		t.conns[peer] = conn
		out := make(chan rt.Message, outQueue)
		t.outs[peer] = out
		t.wg.Add(1)
		if cfg.Legacy {
			go t.sendLoopLegacy(peer, conn, out)
		} else {
			go t.sendLoop(peer, conn, out)
		}
	}
	return t, nil
}

// outQueue bounds each outbound queue, the self-delivery queue included.
// Sends never block (they run under the node lock), so a full queue is a
// panic rather than backpressure.
const outQueue = 1 << 14

// dialUntil dials addr with bounded exponential backoff (50ms doubling to
// a 2s cap) until the deadline passes. Peers of a cluster may come up in
// any order, so early connection refusals are expected, not fatal; only a
// peer still unreachable once the whole budget is spent is an error.
func dialUntil(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		sleep := backoff
		if rem := time.Until(deadline); rem < sleep {
			sleep = rem
		}
		time.Sleep(sleep)
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

func (t *TCPNode) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// Close walks accepted under acceptedMu after closing t.closed, so
		// a connection accepted while Close runs is either seen by that
		// walk or closed here; its reader can never outlive the node.
		t.acceptedMu.Lock()
		select {
		case <-t.closed:
			t.acceptedMu.Unlock()
			conn.Close()
			return
		default:
		}
		t.accepted = append(t.accepted, conn)
		t.acceptedMu.Unlock()
		t.wg.Add(1)
		go t.recvLoop(conn)
	}
}

// recvBufSize is the inbound read buffer of the optimized path: large
// enough that a coalesced burst of frames costs one read syscall.
const recvBufSize = 64 << 10

// recvLoop reads frames from one inbound connection until the stream
// ends. A clean close (or a network-level failure) ends the loop
// silently, matching crash-stop semantics; a stream that stops making
// sense as frames — bad version, oversized length, truncated payload,
// unknown tag, malformed body — closes only this connection and surfaces
// a descriptive error through the error hook.
//
// On the optimized path the loop only frames and decodes: decoded
// messages are handed to the source's FIFO dispatcher, so the next frame
// is read off the socket while the handler still runs (pipelining). The
// Legacy path runs the handler inline, one frame at a time.
func (t *TCPNode) recvLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	size := recvBufSize
	if t.cfg.Legacy {
		size = 4096 // bufio.NewReader's default, the pre-optimization size
	}
	r := bufio.NewReaderSize(conn, size)
	var buf []byte

	// Handshake: the first frame must be a Hello naming the peer.
	payload, err := wire.ReadFrame(r, buf, t.cfg.MaxFrame)
	if err != nil {
		t.recvError(-1, conn, err, false)
		return
	}
	buf = payload
	hm, err := wire.Unmarshal(payload)
	if err != nil {
		t.observeMsg(rt.MsgCorrupt, -1, t.cfg.ID, "", len(payload))
		t.recvError(-1, conn, err, true)
		return
	}
	h, ok := hm.(Hello)
	if !ok || h.ID < 0 || h.ID >= len(t.cfg.Addrs) {
		t.recvError(-1, conn, fmt.Errorf("transport: bad handshake %q from %s", hm.Kind(), conn.RemoteAddr()), true)
		return
	}
	if h.ID == t.cfg.ID && !t.cfg.Legacy {
		// Self-sends never cross a socket on the tuned path; a stream
		// claiming our own ID would interleave with the local queue.
		t.recvError(-1, conn, fmt.Errorf("transport: handshake from %s claims this node's id %d", conn.RemoteAddr(), h.ID), true)
		return
	}
	src := h.ID
	var disp *dispatcher
	if !t.cfg.Legacy {
		disp = t.dispatcherFor(src)
	}

	for {
		payload, err := wire.ReadFrame(r, buf, t.cfg.MaxFrame)
		if err != nil {
			// The stream ended: the process behind it is gone (crash or
			// restart), so our outbound connection to src is doomed too —
			// flag it so the send loop redials before trusting it with
			// another frame.
			t.stale[src].Store(true)
			t.recvError(src, conn, err, false)
			return
		}
		buf = payload
		msg, err := wire.Unmarshal(payload)
		if err != nil {
			t.observeMsg(rt.MsgCorrupt, src, t.cfg.ID, "", len(payload))
			t.recvError(src, conn, err, true)
			return
		}
		// Decoders copy all byte fields, so reusing buf for the next
		// frame cannot mutate a delivered message.
		t.observeMsg(rt.MsgDeliver, src, t.cfg.ID, msg.Kind(), len(payload))
		if disp == nil {
			t.deliver(src, msg)
			continue
		}
		select {
		case disp.ch <- msg:
		case <-t.closed:
			return
		}
	}
}

// dispQueue bounds each source's dispatch queue. A full queue blocks the
// source's recvLoop, which stops reading its socket: backpressure reaches
// the sender through TCP flow control, never by dropping or reordering.
const dispQueue = 4096

// dispBatch caps how many queued messages one dispatch cycle hands to
// the handler inside a single critical section.
const dispBatch = 256

// dispatcher is one source's inbound FIFO: every connection claiming the
// same source ID feeds the same queue, so per-peer delivery order is
// preserved even across a peer's reconnect. The node's own dispatcher
// (disp[ID], tuned path) is fed by Send directly.
type dispatcher struct {
	ch chan rt.Message
}

// dispatcherFor returns src's dispatcher, starting its worker on first
// use.
func (t *TCPNode) dispatcherFor(src int) *dispatcher {
	t.dispMu.Lock()
	defer t.dispMu.Unlock()
	if t.disp[src] == nil {
		d := &dispatcher{ch: make(chan rt.Message, dispQueue)}
		t.disp[src] = d
		t.wg.Add(1)
		go t.dispatchLoop(src, d)
	}
	return t.disp[src]
}

// dispatchLoop is the per-source delivery worker: it drains whatever has
// accumulated on the queue (up to dispBatch) and runs the handler over
// the whole batch in one critical section with a single waiter wakeup,
// amortizing the node mutex and the condition broadcast over the batch
// instead of paying both per message. Remote deliveries are observed by
// recvLoop as they are decoded; self-deliveries here, in send order.
func (t *TCPNode) dispatchLoop(src int, d *dispatcher) {
	defer t.wg.Done()
	batch := make([]rt.Message, 0, dispBatch)
	for {
		select {
		case <-t.closed:
			return
		case msg := <-d.ch:
			batch = append(batch[:0], msg)
		drain:
			for len(batch) < dispBatch {
				select {
				case m := <-d.ch:
					batch = append(batch, m)
				default:
					break drain
				}
			}
			if src == t.cfg.ID && t.cfg.Observer != nil {
				for _, m := range batch {
					t.observeMsg(rt.MsgDeliver, src, src, m.Kind(), wire.EncodedSize(m))
				}
			}
			t.deliverBatch(src, batch)
		}
	}
}

// recvError records or reports why a connection is being dropped. decode
// marks errors past the framing layer, which are always wire errors;
// framing-layer errors are surfaced only when the bytes were wrong
// (version, length, truncation), not when the network ended the stream
// (EOF, reset, local shutdown) — a dead peer is the crash model at work,
// not a protocol violation.
func (t *TCPNode) recvError(peer int, conn net.Conn, err error, decode bool) {
	if !decode {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return
		}
		if !errors.Is(err, wire.ErrBadVersion) && !errors.Is(err, wire.ErrFrameTooLarge) && !errors.Is(err, wire.ErrShortFrame) {
			return // network-level failure, not a wire error
		}
		if errors.Is(err, wire.ErrShortFrame) {
			// A frame cut short by a vanished peer is a network event;
			// only a stream that keeps flowing with wrong bytes is not.
			var ne net.Error
			if errors.As(err, &ne) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
		}
	}
	t.reportError(peer, fmt.Errorf("transport: connection from peer %d (%s) dropped: %w", peer, conn.RemoteAddr(), err))
}

// reportError surfaces err through the hook, or records it when no hook
// is installed. Errors racing with shutdown are discarded.
func (t *TCPNode) reportError(peer int, err error) {
	select {
	case <-t.closed:
		return // shutdown races are not peer errors
	default:
	}
	if t.cfg.OnError != nil {
		t.cfg.OnError(peer, err)
		return
	}
	t.errMu.Lock()
	t.errs = append(t.errs, err)
	t.errMu.Unlock()
}

// Errors returns the decode errors recorded so far (when no OnError hook
// is installed).
func (t *TCPNode) Errors() []error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return append([]error(nil), t.errs...)
}

// maxSendBatch caps the pending (encoded, unwritten) buffer of one send
// loop: once it is reached the batch is flushed even though more frames
// are queued, so a slow socket or a deep queue cannot grow the buffer —
// and the unit a redial must resend — without bound. A single oversized
// frame can still exceed the cap by itself (frames are never split), so
// the hard bound is maxSendBatch plus one frame.
const maxSendBatch = 64 << 10

// defaultFlushDelay is the outbound coalescing window applied when
// TCPConfig.FlushDelay is zero: long enough to catch the reply frames a
// burst of handler executions produces, short enough not to tax the
// request-reply rounds of a lightly loaded protocol (measured: 5µs beats
// both no timer and 20µs across 32..1024 loadgen clients on loopback).
const defaultFlushDelay = 5 * time.Microsecond

// flushDelay resolves the configured coalescing window (0 = disabled).
func (t *TCPNode) flushDelay() time.Duration {
	if t.cfg.Legacy || t.cfg.FlushDelay < 0 {
		return 0
	}
	if t.cfg.FlushDelay == 0 {
		return defaultFlushDelay
	}
	return t.cfg.FlushDelay
}

// sendLoop encodes and writes frames for one peer. Frames are encoded
// directly into a pending batch buffer and written to the socket once the
// queue is drained AND the flush window (flushDelay) has passed without a
// successor arriving — or immediately once the batch reaches maxSendBatch
// — so bursts coalesce into one write syscall without racing on queue
// length. A write failure (or a stale flag raised by the receive side)
// means the connection died; the loop redials with backoff and resends
// the WHOLE unwritten batch on the fresh connection — the buffer is
// cleared only after a successful write, so a transient connection reset
// between two live processes cannot silently drop frames that were
// batched but never handed to a socket, which would open a FIFO gap the
// protocol's reliable-channel assumption does not tolerate. Frames
// already written before the failure are the in-flight loss of the crash
// model, repaired by the rejoin path when the peer recovers with a WAL;
// without the redial a restarted process would never again receive this
// node's messages and its first operation would starve awaiting a quorum.
func (t *TCPNode) sendLoop(peer int, conn net.Conn, out <-chan rt.Message) {
	defer t.wg.Done()
	var body wire.Buffer
	// pending holds encoded frames not yet accepted by a socket write.
	var pending []byte
	flush := t.flushDelay()
	var timer *time.Timer
	if flush > 0 {
		timer = time.NewTimer(flush)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
	}
	// encode appends msg as one frame to pending. Encode failures are
	// local programming errors (unregistered type, oversized frame); they
	// are surfaced but must not tear down the connection.
	encode := func(msg rt.Message) {
		body.Reset()
		if err := wire.AppendMessage(&body, msg); err != nil {
			t.reportError(peer, fmt.Errorf("transport: encode to node %d: %w", peer, err))
			return
		}
		p, err := wire.AppendFrame(pending, body.Bytes(), t.cfg.MaxFrame)
		if err != nil {
			t.reportError(peer, fmt.Errorf("transport: encode to node %d: %w", peer, err))
			return
		}
		pending = p
	}
	for {
		select {
		case <-t.closed:
			return
		case msg := <-out:
			encode(msg)
			// Gather: coalesce everything already queued, plus — when a
			// flush window is configured — frames arriving within it. The
			// window is armed once per batch (it bounds the write's total
			// delay, not the gap between frames), and the batch is flushed
			// at maxSendBatch even though more frames are queued.
			armed := false
		gather:
			for len(pending) < maxSendBatch {
				select {
				case m := <-out:
					encode(m)
					continue
				default:
				}
				if timer == nil {
					break gather
				}
				if !armed {
					timer.Reset(flush)
					armed = true
				}
				select {
				case m := <-out:
					encode(m)
				case <-timer.C:
					armed = false
					break gather
				case <-t.closed:
					return
				}
			}
			if armed && !timer.Stop() {
				<-timer.C
			}
			if len(pending) == 0 {
				continue // every gathered frame failed to encode
			}
			if t.stale[peer].CompareAndSwap(true, false) {
				// The peer's inbound stream ended since the last frame: the
				// kernel would accept this write and drop it on the floor.
				if conn = t.redial(peer, conn); conn == nil {
					return // node shut down while reconnecting
				}
			}
			for {
				_, werr := conn.Write(pending)
				if werr == nil {
					pending = pending[:0]
					break
				}
				if conn = t.redial(peer, conn); conn == nil {
					return // node shut down while reconnecting
				}
			}
		}
	}
}

// sendLoopLegacy is the pre-optimization send loop, byte-for-byte the
// behaviour the optimized sendLoop is benchmarked against: per-frame
// encode into an intermediate buffer, batching only when the queue
// happens to be non-empty at check time, one write per check. The redial
// resend-all-unwritten invariant is identical.
func (t *TCPNode) sendLoopLegacy(peer int, conn net.Conn, out <-chan rt.Message) {
	defer t.wg.Done()
	var body wire.Buffer
	var frame []byte
	var pending []byte
	for {
		select {
		case <-t.closed:
			return
		case msg := <-out:
			body.Reset()
			if err := wire.AppendMessage(&body, msg); err != nil {
				t.reportError(peer, fmt.Errorf("transport: encode to node %d: %w", peer, err))
				continue
			}
			var err error
			frame, err = wire.AppendFrame(frame[:0], body.Bytes(), t.cfg.MaxFrame)
			if err != nil {
				t.reportError(peer, fmt.Errorf("transport: encode to node %d: %w", peer, err))
				continue
			}
			pending = append(pending, frame...)
			if t.stale[peer].CompareAndSwap(true, false) {
				if conn = t.redial(peer, conn); conn == nil {
					return // node shut down while reconnecting
				}
			}
			if len(out) > 0 && len(pending) < maxSendBatch {
				continue // batch: more frames are already queued
			}
			for {
				_, werr := conn.Write(pending)
				if werr == nil {
					pending = pending[:0]
					break
				}
				if conn = t.redial(peer, conn); conn == nil {
					return // node shut down while reconnecting
				}
			}
		}
	}
}

// redial replaces a dead peer connection: it closes the old one, dials
// the peer with capped exponential backoff until the node itself shuts
// down, and performs the Hello handshake on the fresh connection. It
// returns nil only when the node closed while reconnecting.
func (t *TCPNode) redial(peer int, old net.Conn) net.Conn {
	old.Close()
	hello, err := wire.MarshalFrame(Hello{ID: t.cfg.ID}, t.cfg.MaxFrame)
	if err != nil {
		t.reportError(peer, fmt.Errorf("transport: encode handshake: %w", err))
		return nil
	}
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		conn, err := net.DialTimeout("tcp", t.cfg.Addrs[peer], time.Second)
		if err == nil {
			if _, err = conn.Write(hello); err == nil {
				t.connsMu.Lock()
				t.conns[peer] = conn
				t.connsMu.Unlock()
				t.stale[peer].Store(false)
				select {
				case <-t.closed:
					// Close may already have walked conns; make sure the
					// replacement cannot outlive the node.
					conn.Close()
					return nil
				default:
				}
				return conn
			}
			conn.Close()
		}
		select {
		case <-t.closed:
			return nil
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// nowTicks is wall time scaled into ticks, matching tcpRuntime.Now.
func (t *TCPNode) nowTicks() rt.Ticks {
	return rt.Ticks(time.Since(t.start) * time.Duration(rt.TicksPerD) / t.cfg.D)
}

func (t *TCPNode) observeMsg(event string, src, dst int, kind string, bytes int) {
	if t.cfg.Observer != nil {
		t.cfg.Observer.OnMsg(rt.MsgEvent{
			T: t.nowTicks(), Event: event, Src: src, Dst: dst,
			Kind: kind, Bytes: bytes,
		})
	}
}

// Addr is the node's actual listen address (useful when the config bound
// port 0).
func (t *TCPNode) Addr() string { return t.listener.Addr().String() }

// SetHandler installs the message handler; messages that arrived earlier
// (peers finish setup at different times) are delivered to it immediately.
func (t *TCPNode) SetHandler(h rt.Handler) { t.setHandler(h) }

// Runtime returns this node's rt.Runtime.
func (t *TCPNode) Runtime() rt.Runtime { return (*tcpRuntime)(t) }

// Crash crash-stops the node: it stops handling messages and blocked
// waits return rt.ErrCrashed. Connections stay open (peers need not
// distinguish a crashed node from a silent one).
func (t *TCPNode) Crash() { t.crash() }

// Close shuts the node down.
func (t *TCPNode) Close() {
	select {
	case <-t.closed:
		return
	default:
	}
	close(t.closed)
	if t.listener != nil {
		t.listener.Close()
	}
	t.connsMu.Lock()
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	t.connsMu.Unlock()
	t.acceptedMu.Lock()
	for _, c := range t.accepted {
		c.Close()
	}
	t.acceptedMu.Unlock()
	t.wg.Wait()
}

type tcpRuntime TCPNode

var _ rt.Runtime = (*tcpRuntime)(nil)

func (r *tcpRuntime) ID() int { return r.cfg.ID }
func (r *tcpRuntime) N() int  { return len(r.cfg.Addrs) }
func (r *tcpRuntime) F() int  { return r.cfg.F }

func (r *tcpRuntime) Send(dst int, msg rt.Message) {
	out := r.outs[dst]
	if out == nil {
		return
	}
	if r.cfg.Observer != nil {
		(*TCPNode)(r).observeMsg(rt.MsgSend, r.cfg.ID, dst, msg.Kind(), wire.EncodedSize(msg))
	}
	select {
	case out <- msg:
	default:
		panic(fmt.Sprintf("transport: outbound queue to node %d overflow", dst))
	}
}

func (r *tcpRuntime) Broadcast(msg rt.Message) {
	for dst := range r.cfg.Addrs {
		r.Send(dst, msg)
	}
}

func (r *tcpRuntime) Atomic(fn func()) { (*TCPNode)(r).atomic(fn) }

func (r *tcpRuntime) WaitUntilThen(label string, pred func() bool, then func()) error {
	return (*TCPNode)(r).waitUntilThen(pred, then)
}

func (r *tcpRuntime) Now() rt.Ticks { return (*TCPNode)(r).nowTicks() }

func (r *tcpRuntime) Crashed() bool { return (*TCPNode)(r).crashed.Load() }
