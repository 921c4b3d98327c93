package transport_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// benchMsg is the test-local payload the transport benchmarks ship: a
// sequence number plus a small body, registered in the test tag range.
type benchMsg struct {
	Seq int
	Pad []byte
}

func (benchMsg) Kind() string { return "benchMsg" }

func init() {
	wire.Register(wire.Codec{
		Tag: wire.TestTagBase + 0x10, Proto: benchMsg{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			bm := m.(benchMsg)
			b.PutInt(bm.Seq)
			b.PutBytes(bm.Pad)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return benchMsg{Seq: d.Int(), Pad: d.Bytes()}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return benchMsg{Seq: rng.Intn(1 << 20), Pad: []byte("pad")}
		},
	})
}

// countingHandler counts deliveries (the protocol side of the benchmark
// mesh does no work, so the measured cost is the transport's own).
type countingHandler struct{ n atomic.Int64 }

func (h *countingHandler) HandleMessage(src int, msg rt.Message) { h.n.Add(1) }

// benchPair builds a two-node mesh and returns the sender runtime plus
// the receiver's delivery counter. The mesh closes when the benchmark
// ends.
func benchPair(b *testing.B, legacy bool) (rt.Runtime, *countingHandler) {
	b.Helper()
	nodes := newTestMesh(b, 2, func(_ int, cfg *transport.TCPConfig) { cfg.Legacy = legacy })
	h := &countingHandler{}
	nodes[0].SetHandler(h)
	nodes[1].SetHandler(&countingHandler{})
	return nodes[1].Runtime(), h
}

// runDeliver ships b.N messages from node 1 to node 0 and waits for the
// last delivery, reporting allocations per delivered message.
func runDeliver(b *testing.B, legacy bool) {
	rtm, h := benchPair(b, legacy)
	pad := []byte("0123456789abcdef0123456789abcdef") // 32B body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The outbound queue is bounded; pace the sender against the
		// receiver so the benchmark measures steady state, not overflow.
		for int(h.n.Load()) < i-4096 {
			time.Sleep(10 * time.Microsecond)
		}
		rtm.Send(0, benchMsg{Seq: i, Pad: pad})
	}
	for int(h.n.Load()) < b.N {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
}

// BenchmarkTCPDeliver measures the tuned transport path: pipelined
// dispatch, pooled buffers, coalesced writes.
func BenchmarkTCPDeliver(b *testing.B) { runDeliver(b, false) }

// BenchmarkTCPDeliverLegacy measures the pre-optimization path kept
// behind TCPConfig.Legacy (serial inline dispatch, per-frame writes).
func BenchmarkTCPDeliverLegacy(b *testing.B) { runDeliver(b, true) }
