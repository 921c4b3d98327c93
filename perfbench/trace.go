package main

import (
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// tracer times every layer boundary of the mesh from outside the program,
// by wrapping each layer's public surface: the svc Observer, the engine's
// Observer, the svc object (recorder), the rt.Handler, the transport's
// Observer and listener, and the WAL file. Histograms and counters only
// take samples while active (the timed window plus its drain); FIFO
// matching runs throughout so it stays aligned.
type tracer struct {
	clock
	n      int
	active atomic.Bool

	// svc: admission-to-resolution per op, and the protocol call that
	// served it (lastCall is the worker's most recent call duration; svc
	// emits a call's end events right after the call returns, on the same
	// worker goroutine).
	svcMu      []sync.Mutex
	svcStart   []map[int64]int64
	lastCall   []int64
	svcResolve *obs.Histogram
	svcDurSum  atomic.Int64
	protoSum   atomic.Int64
	svcOps     atomic.Int64
	queueDepth *obs.Histogram

	// engine: protocol calls, phases, handler.
	engUpdate, engScan *obs.Histogram
	phaseMu            sync.Mutex
	phases             map[string]*obs.Histogram
	curPhase           []string
	phaseStart         []int64
	handler            *obs.Histogram
	handlerBusy        atomic.Int64
	handled            atomic.Int64
	handlers           []*tracedHandler
	engines            []engine.Engine

	// transport: per (src, dst) FIFOs of send and deliver times.
	sent, sentBytes  atomic.Int64
	delivered, reads atomic.Int64
	sendQ, delivQ    [][]fifo
	sendToDeliver    *obs.Histogram
	dispatchWait     *obs.Histogram

	// wal
	walSync, walWrite  *obs.Histogram
	walSyncs, walBytes atomic.Int64
}

func newTracer(c clock, n int) *tracer {
	t := &tracer{
		clock:      c,
		n:          n,
		svcMu:      make([]sync.Mutex, n),
		svcStart:   make([]map[int64]int64, n),
		lastCall:   make([]int64, n),
		phases:     make(map[string]*obs.Histogram),
		curPhase:   make([]string, n),
		phaseStart: make([]int64, n),
		handlers:   make([]*tracedHandler, n),
		engines:    make([]engine.Engine, n),
		sendQ:      make([][]fifo, n),
		delivQ:     make([][]fifo, n),

		svcResolve:    newHist(),
		queueDepth:    newHist(),
		engUpdate:     newHist(),
		engScan:       newHist(),
		handler:       newHist(),
		sendToDeliver: newHist(),
		dispatchWait:  newHist(),
		walSync:       newHist(),
		walWrite:      newHist(),
	}
	for i := 0; i < n; i++ {
		t.svcStart[i] = make(map[int64]int64)
		t.sendQ[i] = make([]fifo, n)
		t.delivQ[i] = make([]fifo, n)
	}
	return t
}

// fifo is a queue of timestamps for one (src, dst) channel.
type fifo struct {
	mu   sync.Mutex
	buf  []int64
	head int
}

func (q *fifo) push(v int64) {
	q.mu.Lock()
	q.buf = append(q.buf, v)
	q.mu.Unlock()
}

func (q *fifo) pop() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.buf) {
		return 0, false
	}
	v := q.buf[q.head]
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case q.head > 1024 && 2*q.head > len(q.buf):
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	return v, true
}

// OnMsg is the transport observer: a message's k-th send on a channel
// pairs with its k-th delivery (FIFO channels), and each delivery is
// queued for the handler wrapper to measure the dispatch wait.
func (t *tracer) OnMsg(ev rt.MsgEvent) {
	if ev.Src < 0 || ev.Dst < 0 || ev.Src >= t.n || ev.Dst >= t.n {
		return
	}
	now := t.now()
	on := t.active.Load()
	switch ev.Event {
	case rt.MsgSend:
		t.sendQ[ev.Src][ev.Dst].push(now)
		if on {
			t.sent.Add(1)
			t.sentBytes.Add(int64(ev.Bytes))
		}
	case rt.MsgDeliver:
		if s, ok := t.sendQ[ev.Src][ev.Dst].pop(); ok && on {
			t.sendToDeliver.Observe(float64(now - s))
		}
		t.delivQ[ev.Src][ev.Dst].push(now)
		if on {
			t.delivered.Add(1)
		}
	}
}

// OnOp is unused on the transport observer.
func (t *tracer) OnOp(rt.OpEvent) {}

// svcObs receives one node's svc operation events.
type svcObs struct {
	t    *tracer
	node int
}

func (t *tracer) svcObserver(node int) rt.Observer { return svcObs{t, node} }

func (o svcObs) OnMsg(rt.MsgEvent) {}

func (o svcObs) OnOp(ev rt.OpEvent) {
	t, i := o.t, o.node
	now := t.now()
	switch ev.Phase {
	case rt.PhaseStart:
		t.svcMu[i].Lock()
		t.svcStart[i][ev.ID] = now
		t.svcMu[i].Unlock()
	case rt.PhaseEnd:
		t.svcMu[i].Lock()
		start, ok := t.svcStart[i][ev.ID]
		delete(t.svcStart[i], ev.ID)
		t.svcMu[i].Unlock()
		if !ok || !t.active.Load() {
			return
		}
		d := now - start
		t.svcResolve.Observe(float64(d))
		t.svcDurSum.Add(d)
		t.protoSum.Add(t.lastCall[i])
		t.svcOps.Add(1)
	}
}

// protoCall records one protocol call made by node's svc worker.
func (t *tracer) protoCall(node int, scan bool, t0, t1 int64) {
	t.lastCall[node] = t1 - t0
	if !t.active.Load() {
		return
	}
	if scan {
		t.engScan.Observe(float64(t1 - t0))
	} else {
		t.engUpdate.Observe(float64(t1 - t0))
	}
}

// engObs receives one node's engine operation events; they all come from
// the node's svc worker, so the per-node phase state needs no lock.
type engObs struct {
	t    *tracer
	node int
}

func (o engObs) OnMsg(rt.MsgEvent) {}

func (o engObs) OnOp(ev rt.OpEvent) {
	t, i := o.t, o.node
	now := t.now()
	if cur := t.curPhase[i]; cur != "" && ev.Phase != rt.PhaseStart && t.active.Load() {
		t.phaseHist(cur).Observe(float64(now - t.phaseStart[i]))
	}
	switch ev.Phase {
	case rt.PhaseStart, rt.PhaseEnd:
		t.curPhase[i] = ""
	default:
		t.curPhase[i], t.phaseStart[i] = ev.Phase, now
	}
}

func (t *tracer) phaseHist(name string) *obs.Histogram {
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	h := t.phases[name]
	if h == nil {
		h = newHist()
		t.phases[name] = h
	}
	return h
}

// phaseNames lists the phases seen, sorted.
func (t *tracer) phaseNames() []string {
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	var out []string
	for name := range t.phases {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// metricPhase is a phase name as it appears in a metric name.
func metricPhase(name string) string { return strings.ReplaceAll(name, ":", "-") }

func (t *tracer) attachEngine(node int, eng engine.Engine) {
	t.engines[node] = eng
	if o, ok := eng.(engine.Observable); ok {
		o.SetObserver(engObs{t, node})
	}
}

// tracedHandler times one node's handler. The transport runs handlers
// under the node's lock, so its own fields need no further locking.
type tracedHandler struct {
	t      *tracer
	node   int
	h      rt.Handler
	kinds  map[string]int64
	seen   int64
	sample []rt.Message
}

// The wire replay samples every sampleEvery-th handled message, up to
// maxSample per node.
const (
	sampleEvery = 16
	maxSample   = 4096
)

func (t *tracer) wrapHandler(node int, h rt.Handler) rt.Handler {
	th := &tracedHandler{t: t, node: node, h: h, kinds: make(map[string]int64)}
	t.handlers[node] = th
	return th
}

func (th *tracedHandler) HandleMessage(src int, m rt.Message) {
	t := th.t
	t0 := t.now()
	d, queued := t.delivQ[src][th.node].pop()
	th.h.HandleMessage(src, m)
	t1 := t.now()
	if !t.active.Load() {
		return
	}
	if queued {
		t.dispatchWait.Observe(float64(t0 - d))
	}
	t.handler.Observe(float64(t1 - t0))
	t.handlerBusy.Add(t1 - t0)
	t.handled.Add(1)
	th.kinds[m.Kind()]++
	th.seen++
	if th.seen%sampleEvery == 0 && len(th.sample) < maxSample {
		th.sample = append(th.sample, m)
	}
}

// wrapListener counts read calls on every accepted connection.
func (t *tracer) wrapListener(ln net.Listener) net.Listener { return countingListener{ln, t} }

type countingListener struct {
	net.Listener
	t *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.t}, nil
}

type countingConn struct {
	net.Conn
	t *tracer
}

func (c countingConn) Read(p []byte) (int, error) {
	if c.t.active.Load() {
		c.t.reads.Add(1)
	}
	return c.Conn.Read(p)
}

// wrapFile times WAL writes and syncs.
func (t *tracer) wrapFile(f *os.File) *tracedFile { return &tracedFile{f, t} }

type tracedFile struct {
	f *os.File
	t *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t0 := f.t.now()
	n, err := f.f.Write(p)
	if f.t.active.Load() {
		f.t.walWrite.Observe(float64(f.t.now() - t0))
		f.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := f.t.now()
	err := f.f.Sync()
	if f.t.active.Load() {
		f.t.walSync.Observe(float64(f.t.now() - t0))
		f.t.walSyncs.Add(1)
	}
	return err
}

// sampleQueues samples every service's queue depth each millisecond until
// stop is closed.
func (t *tracer) sampleQueues(m *mesh, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if !t.active.Load() {
				continue
			}
			for _, s := range m.services {
				t.queueDepth.Observe(float64(s.QueueLen()))
			}
		}
	}
}

// wireReplay is the codec cost on the captured message mix.
type wireReplay struct {
	msgs                         int
	encodeNs, decodeNs, bytesPer float64
}

// replayWire times wire.Marshal and wire.Unmarshal over the sampled
// messages, repeating the sample for at least minDur and reporting the
// median round.
func (t *tracer) replayWire(minDur time.Duration) (wireReplay, error) {
	var msgs []rt.Message
	for _, th := range t.handlers {
		if th != nil {
			msgs = append(msgs, th.sample...)
		}
	}
	if len(msgs) == 0 {
		return wireReplay{}, nil
	}
	enc := make([][]byte, len(msgs))
	var total int
	for i, m := range msgs {
		b, err := wire.Marshal(m)
		if err != nil {
			return wireReplay{}, err
		}
		enc[i] = b
		total += len(b)
	}
	var encs, decs []float64
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < minDur; round++ {
		t0 := time.Now()
		for _, m := range msgs {
			if _, err := wire.Marshal(m); err != nil {
				return wireReplay{}, err
			}
		}
		t1 := time.Now()
		for _, b := range enc {
			if _, err := wire.Unmarshal(b); err != nil {
				return wireReplay{}, err
			}
		}
		t2 := time.Now()
		encs = append(encs, float64(t1.Sub(t0))/float64(len(msgs)))
		decs = append(decs, float64(t2.Sub(t1))/float64(len(msgs)))
	}
	return wireReplay{
		msgs: len(msgs), encodeNs: median(encs), decodeNs: median(decs),
		bytesPer: float64(total) / float64(len(msgs)),
	}, nil
}

// kindCounts merges the per-node handled-message counts by kind.
func (t *tracer) kindCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, th := range t.handlers {
		if th == nil {
			continue
		}
		for k, v := range th.kinds {
			out[k] += v
		}
	}
	return out
}
