package transport_test

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// startMesh brings up an n-node EQ-ASO mesh on loopback with an error
// hook per node and returns the nodes plus a per-node error sink.
func startMesh(t *testing.T, n, f int) ([]*transport.TCPNode, []*eqaso.Node, func() []error) {
	t.Helper()
	var errMu sync.Mutex
	var surfaced []error
	tnodes := newTestMesh(t, n, func(_ int, cfg *transport.TCPConfig) {
		cfg.F = f
		cfg.OnError = func(peer int, err error) {
			errMu.Lock()
			surfaced = append(surfaced, err)
			errMu.Unlock()
		}
	})
	nodes := make([]*eqaso.Node, n)
	for i, tn := range tnodes {
		nodes[i] = eqaso.New(tn.Runtime())
		tn.SetHandler(nodes[i])
	}
	return tnodes, nodes, func() []error {
		errMu.Lock()
		defer errMu.Unlock()
		return append([]error(nil), surfaced...)
	}
}

// dialRaw opens a raw connection to addr and performs the wire handshake
// claiming node id.
func dialRaw(t *testing.T, addr string, id int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.MarshalFrame(transport.Hello{ID: id}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	return conn
}

func waitForError(t *testing.T, get func() []error, want string) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, err := range get() {
			if strings.Contains(err.Error(), want) {
				return err
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no surfaced error containing %q; got %v", want, get())
	return nil
}

// TestTCPDecodeErrorClosesOnlyThatConnection is the regression test for
// the silent recv-loop exit: garbage on one peer connection must close
// that connection and surface a descriptive error, while the rest of the
// mesh keeps serving operations.
func TestTCPDecodeErrorClosesOnlyThatConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, nodes, surfaced := startMesh(t, n, f)

	// A rogue "peer" handshakes as node 2, then emits a frame with a bad
	// version byte.
	rogue := dialRaw(t, tcpAddr(tnodes, 0), 2)
	defer rogue.Close()
	if _, err := rogue.Write([]byte{0xFF, 0, 0, 0, 1, 42}); err != nil {
		t.Fatal(err)
	}
	err := waitForError(t, surfaced, "peer 2")
	if !errors.Is(err, wire.ErrBadVersion) {
		t.Fatalf("surfaced error = %v, want ErrBadVersion", err)
	}
	// The rogue connection is closed by the node...
	rogue.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := rogue.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("rogue connection still open after decode error")
	}
	// ...and the real mesh still completes operations end to end.
	if err := nodes[1].Update([]byte("alive")); err != nil {
		t.Fatalf("update after decode error: %v", err)
	}
	snap, err := nodes[0].Scan()
	if err != nil {
		t.Fatalf("scan after decode error: %v", err)
	}
	if got := harness.SnapStrings(snap)[1]; got != "alive" {
		t.Fatalf("scan = %v, want node 1 = alive", harness.SnapStrings(snap))
	}
}

// tcpAddr is node i's actual listen address.
func tcpAddr(tnodes []*transport.TCPNode, i int) string {
	return tnodes[i].Addr()
}

// TestTCPOversizedFrameRejected: a corrupt length prefix larger than the
// cap must be rejected before any allocation and surfaced.
func TestTCPOversizedFrameRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, nodes, surfaced := startMesh(t, n, f)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 2)
	defer rogue.Close()
	hdr := make([]byte, wire.HeaderLen)
	hdr[0] = wire.Version
	binary.BigEndian.PutUint32(hdr[1:], 0xFFFFFFF0) // ~4GiB claimed payload
	if _, err := rogue.Write(hdr); err != nil {
		t.Fatal(err)
	}
	err := waitForError(t, surfaced, "peer 2")
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("surfaced error = %v, want ErrFrameTooLarge", err)
	}
	if err := nodes[1].Update([]byte("still-up")); err != nil {
		t.Fatalf("update after oversized frame: %v", err)
	}
}

// TestTCPUnknownTagSurfaced: a well-framed payload with an unregistered
// tag is a decode error, not a crash or a silent drop.
func TestTCPUnknownTagSurfaced(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, _, surfaced := startMesh(t, n, f)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 1)
	defer rogue.Close()
	var b wire.Buffer
	b.PutUvarint(0xEFFF) // below TestTagBase, never registered
	frame, err := wire.AppendFrame(nil, b.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rogue.Write(frame); err != nil {
		t.Fatal(err)
	}
	serr := waitForError(t, surfaced, "peer 1")
	if !errors.Is(serr, wire.ErrUnknownTag) {
		t.Fatalf("surfaced error = %v, want ErrUnknownTag", serr)
	}
}

// TestTCPReconnectAfterPeerRestart is the regression test for the
// crash-recovery rejoin path over TCP: when a peer's process dies and a
// new incarnation comes back on the same address, the surviving node's
// send loop must redial (its old outbound connection died with the old
// process) so the restarted peer receives the messages it is owed —
// without it, a recovered `asonode -wal` would starve on its first
// post-restart operation, never seeing the mesh's replies.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}

	newNode := func(id int, ln net.Listener, got chan<- int) *transport.TCPNode {
		t.Helper()
		cfg := transport.TCPConfig{ID: id, Addrs: addrs, F: 0, D: 5 * time.Millisecond, Listener: ln}
		tn, err := transport.NewTCPNode(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		tn.SetHandler(rtHandlerCapture(got))
		return tn
	}
	// Nodes dial each other concurrently (NewTCPNode waits for the full
	// mesh, so bringing them up serially would deadlock).
	gotA := make(chan int, 16)
	gotB := make(chan int, 16)
	var a *transport.TCPNode
	done := make(chan struct{})
	go func() { a = newNode(0, lnA, gotA); close(done) }()
	b1 := newNode(1, lnB, gotB)
	<-done
	defer a.Close()

	recv := func(ch <-chan int, want int, when string) {
		t.Helper()
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("%s: delivered %d, want %d", when, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no delivery of %d", when, want)
		}
	}
	a.Runtime().Send(1, transport.Hello{ID: 7})
	recv(gotB, 7, "before restart")

	// The peer's process dies; give the survivor's receive loop a moment
	// to observe the EOF and flag the outbound connection stale.
	b1.Close()
	time.Sleep(100 * time.Millisecond)

	// A new incarnation comes up on the same address. Its NewTCPNode
	// blocks until it reaches every peer, so once it returns the mesh is
	// re-formed from its side; the survivor's side must self-heal.
	gotB2 := make(chan int, 16)
	lnB2, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	b2 := newNode(1, lnB2, gotB2)
	defer b2.Close()

	a.Runtime().Send(1, transport.Hello{ID: 8})
	recv(gotB2, 8, "after restart")
	// And the restarted incarnation reaches the survivor on fresh dials.
	b2.Runtime().Send(0, transport.Hello{ID: 9})
	recv(gotA, 9, "restarted node to survivor")
}

// rtHandlerCapture forwards the IDs of delivered Hello payloads.
func rtHandlerCapture(got chan<- int) rt.HandlerFunc {
	return func(src int, msg rt.Message) {
		if h, ok := msg.(transport.Hello); ok {
			got <- h.ID
		}
	}
}

// TestTCPCleanCloseSilent: a peer that just disconnects (crash-stop) must
// not surface a wire error.
func TestTCPCleanCloseSilent(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, _, surfaced := startMesh(t, n, f)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 2)
	rogue.Close()
	time.Sleep(100 * time.Millisecond)
	if errs := surfaced(); len(errs) != 0 {
		t.Fatalf("clean close surfaced errors: %v", errs)
	}
	_ = tnodes
}
