package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
	"mpsnap/internal/wal"
)

// meshConfig describes one n-node loopback TCP deployment, assembled from
// the public constructors only: transport.NewTCPNode, engine.Lookup(...).New
// and svc.New on the tuned path (DirectWait, AdaptiveWindow).
type meshConfig struct {
	engine string
	n, f   int
	// walFiles, when set, gives node i a WAL on the real file walFiles[i],
	// with wal.NewWriter(f, walBatch) and value-log GC on, as cmd/asonode
	// does. The caller creates and closes them (see meshConfigFor).
	walFiles []*os.File
	// tr, when set, wraps every layer boundary with tracing hooks.
	tr *tracer
	// wrap, when set, is interposed between the engine and the commit-order
	// recorder (the checker's tests use it to inject faulty snapshots).
	wrap func(node int, obj svc.BatchObject) svc.BatchObject
}

// walBatch is the WAL sync batch cmd/asonode deploys.
const walBatch = 8

// tickD is the transport's D: it only scales rt.Ticks (1 tick = 1µs),
// never delays a message.
const tickD = time.Millisecond

type mesh struct {
	nodes    []*transport.TCPNode
	engines  []engine.Engine
	services []*svc.Service
	recs     []*recorder
	serving  sync.WaitGroup
}

// newMesh brings the mesh up and starts every service worker; it returns
// once the first operation can be admitted.
func newMesh(cfg meshConfig) (m *mesh, err error) {
	m = &mesh{
		nodes:    make([]*transport.TCPNode, cfg.n),
		engines:  make([]engine.Engine, cfg.n),
		services: make([]*svc.Service, cfg.n),
		recs:     make([]*recorder, cfg.n),
	}
	defer func() {
		if err != nil {
			m.close()
		}
	}()
	info, err := engine.Lookup(cfg.engine)
	if err != nil {
		return m, err
	}
	if err := info.Validate(cfg.n, cfg.f); err != nil {
		return m, err
	}
	listeners := make([]net.Listener, cfg.n)
	addrs := make([]string, cfg.n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return m, fmt.Errorf("listen: %w", err)
		}
		if cfg.tr != nil {
			ln = cfg.tr.wrapListener(ln)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	// NewTCPNode returns only once its full mesh is up, so the nodes must
	// start concurrently.
	errs := make(chan error, cfg.n)
	for i := range m.nodes {
		go func(i int) {
			tcfg := transport.TCPConfig{ID: i, Addrs: addrs, F: cfg.f, D: tickD, Listener: listeners[i]}
			if cfg.tr != nil {
				tcfg.Observer = cfg.tr
			}
			tn, err := transport.NewTCPNode(tcfg)
			m.nodes[i] = tn
			errs <- err
		}(i)
	}
	for range m.nodes {
		if e := <-errs; e != nil && err == nil {
			err = fmt.Errorf("transport: %w", e)
		}
	}
	if err != nil {
		return m, err
	}
	for i, tn := range m.nodes {
		eng := info.New(tn.Runtime())
		if cfg.walFiles != nil {
			d, ok := eng.(engine.Durable)
			if !ok {
				return m, fmt.Errorf("engine %s has no WAL support", cfg.engine)
			}
			f := cfg.walFiles[i]
			var wf wal.File = f
			if cfg.tr != nil {
				wf = cfg.tr.wrapFile(f)
			}
			d.AttachWAL(wal.NewWriter(wf, walBatch), true)
		}
		obj, ok := eng.(svc.BatchObject)
		if !ok {
			return m, fmt.Errorf("engine %s does not batch updates", cfg.engine)
		}
		if cfg.wrap != nil {
			obj = cfg.wrap(i, obj)
		}
		m.engines[i] = eng
		m.recs[i] = &recorder{inner: obj}
		var h rt.Handler = eng
		if cfg.tr != nil {
			cfg.tr.attachEngine(i, eng)
			m.recs[i].tr = cfg.tr
			m.recs[i].node = i
			h = cfg.tr.wrapHandler(i, eng)
		}
		tn.SetHandler(h)
		opts := svc.Options{Mode: svc.ModeFor(cfg.engine), DirectWait: true, AdaptiveWindow: true}
		if cfg.tr != nil {
			opts.Observer = cfg.tr.svcObserver(i)
		}
		m.services[i] = svc.New(tn.Runtime(), m.recs[i], opts)
	}
	for _, s := range m.services {
		m.serving.Add(1)
		go func(s *svc.Service) {
			defer m.serving.Done()
			_ = s.Serve() // returns nil after close; no node ever crashes here
		}(s)
	}
	return m, nil
}

// stopServing closes admission and waits until every worker has drained
// its queue and exited; afterwards the recorders' commit logs are final.
func (m *mesh) stopServing() {
	for _, s := range m.services {
		if s != nil {
			s.Close()
		}
	}
	m.serving.Wait()
}

// crash crash-stops every node: blocked protocol waits return
// rt.ErrCrashed, so each svc fails every op still queued or in flight.
func (m *mesh) crash() {
	for _, tn := range m.nodes {
		if tn != nil {
			tn.Crash()
		}
	}
}

// close tears the mesh down.
//
// The nodes close concurrently. TCPNode.Close misses a connection that its
// accept loop takes in while Close runs, and waits for that connection's
// reader, which ends only when the dialing peer closes its end. Closed one
// after another in one process, the peer's turn never comes and the
// teardown hangs.
func (m *mesh) close() {
	m.stopServing()
	var closing sync.WaitGroup
	for _, tn := range m.nodes {
		if tn != nil {
			closing.Add(1)
			go func(tn *transport.TCPNode) {
				defer closing.Done()
				tn.Close()
			}(tn)
		}
	}
	closing.Wait()
}

// recorder is the svc object of one node: it forwards to the engine and
// records the node's commit order from the UpdateBatch arguments (the
// worker calls it sequentially, so the append order is the commit order).
// With a tracer it also times each protocol call.
type recorder struct {
	inner   svc.BatchObject
	commits []uint64 // payload ids in commit order; written by the worker only
	tr      *tracer
	node    int
}

func (r *recorder) Update(p []byte) error { return r.UpdateBatch([][]byte{p}) }

func (r *recorder) UpdateBatch(ps [][]byte) error {
	for _, p := range ps {
		_, id, ok := parsePayload(p)
		if !ok {
			id = badID
		}
		r.commits = append(r.commits, id)
	}
	if r.tr == nil {
		return r.inner.UpdateBatch(ps)
	}
	t0 := r.tr.now()
	err := r.inner.UpdateBatch(ps)
	r.tr.protoCall(r.node, false, t0, r.tr.now())
	return err
}

func (r *recorder) Scan() ([][]byte, error) {
	if r.tr == nil {
		return r.inner.Scan()
	}
	t0 := r.tr.now()
	snap, err := r.inner.Scan()
	r.tr.protoCall(r.node, true, t0, r.tr.now())
	return snap, err
}

// Payloads are 16 bytes: the writing node, a run-unique op id and a check
// word, so a scan's segment decodes back to exactly one recorded update.
const payloadSize = 16

// badID marks a payload that does not decode; no op has this id.
const badID = ^uint64(0)

func checkWord(node uint32, id uint64) uint32 {
	return uint32((id^uint64(node)<<48)*0x9E3779B97F4A7C15>>32) ^ 0x5a17c0de
}

func makePayload(node int, id uint64) []byte {
	b := make([]byte, payloadSize)
	binary.BigEndian.PutUint32(b[0:], uint32(node))
	binary.BigEndian.PutUint64(b[4:], id)
	binary.BigEndian.PutUint32(b[12:], checkWord(uint32(node), id))
	return b
}

func parsePayload(b []byte) (node int, id uint64, ok bool) {
	if len(b) != payloadSize {
		return 0, 0, false
	}
	nd := binary.BigEndian.Uint32(b[0:])
	id = binary.BigEndian.Uint64(b[4:])
	if binary.BigEndian.Uint32(b[12:]) != checkWord(nd, id) {
		return 0, 0, false
	}
	return int(nd), id, true
}
