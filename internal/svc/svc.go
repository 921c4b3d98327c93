// Package svc is the concurrent snapshot service layer: it sits between
// many client threads and ONE protocol instance per node, which the
// paper's model (one sequential client thread per node, Section II-A)
// otherwise bakes into the public API.
//
// A Service owns a per-node request queue and a single worker thread that
// drives the underlying object. Concurrency is turned into amortization
// exactly the way the paper's O(D) amortized bound intends:
//
//   - UPDATE coalescing: all UPDATEs pending at the start of a worker
//     cycle commit through one protocol UPDATE (a true protocol batch via
//     BatchObject when the object supports it, otherwise last-value-wins);
//     every caller unblocks when the batch containing its value commits.
//   - SCAN sharing: all SCANs pending at the start of a cycle are answered
//     by one in-flight protocol SCAN. Only waiters that arrived before the
//     scan was issued may share its result — a later arrival must not
//     receive a snapshot whose linearization point could precede its own
//     invocation.
//
// Batching merges only operations that are concurrent in real time (they
// are all pending simultaneously), so linearizability is preserved: the
// members of an update batch are linearized consecutively at the batch's
// commit point, in arrival order, and a shared scan's linearization point
// lies inside every sharer's interval.
//
// Two serving modes cover the two consistency levels of the repository:
//
//   - ModeAtomic (linearizable objects): within a cycle the worker is free
//     to reorder — one batched UPDATE, then one shared SCAN. Reordering
//     concurrent operations is exactly what linearizability permits.
//   - ModeSequential (SSO): arrival order is preserved; the queue is
//     served as maximal runs of same-kind requests (each update run is one
//     protocol batch, each scan run shares one protocol scan). This keeps
//     the per-node program order that sequential consistency — and the
//     checker's (S2)/(S3) conditions — are defined over.
//
// The queue is bounded: when MaxPending requests are waiting, PolicyBlock
// (default) applies backpressure by blocking the caller until the worker
// drains, while PolicyReject fails fast with ErrOverloaded. Close drains:
// already-admitted requests are still served, new ones get ErrClosed, and
// Serve returns once the queue is empty.
package svc

import (
	"errors"
	"fmt"

	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
)

// BatchObject is an engine.Object with a batch-friendly UPDATE entry
// point: all payloads commit with one protocol round sequence (EQ-ASO and
// the SSO expose this; see eqaso.UpdateBatch).
type BatchObject interface {
	engine.Object
	// UpdateBatch writes the payloads, in order, as successive values of
	// this node's segment, amortizing one lattice renewal over the batch.
	UpdateBatch(payloads [][]byte) error
}

// Mode selects the worker's serving discipline.
type Mode int

// Serving modes.
const (
	// ModeAtomic reorders within a cycle (updates batch, scans share).
	// Sound for linearizable objects: all reordered ops are concurrent.
	ModeAtomic Mode = iota
	// ModeSequential preserves arrival order (maximal same-kind runs),
	// as required for the SSO's per-node sequential consistency.
	ModeSequential
)

// Policy selects the backpressure behaviour of a full queue.
type Policy int

// Backpressure policies.
const (
	// PolicyBlock parks the caller until the queue has room.
	PolicyBlock Policy = iota
	// PolicyReject fails fast with ErrOverloaded.
	PolicyReject
)

// DefaultMaxPending is the queue bound when Options.MaxPending is 0.
const DefaultMaxPending = 4096

// MinWindow is the floor of the adaptive drain window: small enough that
// a lightly loaded service stays near per-request latency, large enough
// that the window can halve a few times without collapsing batching
// entirely.
const MinWindow = 16

// ErrOverloaded is returned under PolicyReject when the queue is full.
var ErrOverloaded = errors.New("svc: queue full (overloaded)")

// ErrClosed is returned for requests arriving after Close.
var ErrClosed = errors.New("svc: service closed")

// Options parameterizes a Service.
type Options struct {
	// Mode is the serving discipline (default ModeAtomic). Use
	// ModeSequential for SSO-backed services.
	Mode Mode
	// MaxPending bounds the queue (default DefaultMaxPending).
	MaxPending int
	// Policy is the full-queue behaviour (default PolicyBlock).
	Policy Policy
	// Serialize disables coalescing and sharing: the worker serves one
	// request per protocol operation. This is the one-op-at-a-time
	// baseline the batched modes are benchmarked against.
	Serialize bool
	// Coalesce, if set, folds an update batch's payloads (in arrival
	// order) into the single payload committed for the batch; it takes
	// precedence over BatchObject. The sharded Store uses it to merge
	// per-key writes into one segment map.
	Coalesce func(payloads [][]byte) []byte
	// Observer, if set, receives "svc.update"/"svc.scan" operation
	// events: start at admission (the request's position in the serving
	// order is fixed), end when the worker resolves it. The measured
	// latency therefore includes queueing — the client-visible number —
	// whereas the underlying object's own observer (installed separately)
	// measures bare protocol latency. Must be concurrency-safe and
	// non-blocking.
	Observer rt.Observer
	// Window caps how many queued requests one worker cycle drains.
	// 0 means unbounded (every pending request is served each cycle,
	// the original behaviour) unless AdaptiveWindow is set. A bounded
	// window trades peak amortization for tail latency: requests behind
	// the cap wait a cycle instead of joining a huge batch whose commit
	// they would all share.
	Window int
	// AdaptiveWindow sizes the drain window from observed queue depth
	// instead of a fixed cap: starting from Window (or MinWindow when
	// Window is 0), the window doubles when a cycle drains a full window
	// with requests still queued (demand exceeds the cap) and halves when
	// a cycle drains everything with less than a quarter window of work
	// (the cap is slack). Bounds: [MinWindow, MaxPending]. Growth and
	// shrink counts are reported in Stats.
	AdaptiveWindow bool
	// DirectWait resolves Update/Scan waiters through a per-request
	// channel closed by the worker, instead of the runtime's
	// condition-variable wait. Under thousands of concurrent clients the
	// condvar broadcast wakes every waiter on every state change
	// (O(clients) wakeups per cycle); a closed channel wakes exactly the
	// requests being resolved. Only safe on real-time backends (ChanNet,
	// TCP): a raw channel receive on the virtual-time simulator would
	// block outside the runtime's accounting and deadlock virtual time.
	DirectWait bool
}

// Stats counts a service's activity.
type Stats struct {
	// Updates / Scans are admitted client operations.
	Updates, Scans int64
	// Rejected counts PolicyReject refusals.
	Rejected int64
	// ProtoUpdates / ProtoScans are protocol operations issued by the
	// worker; amortization is the ratio of client ops to protocol ops.
	ProtoUpdates, ProtoScans int64
	// MaxBatch is the largest update batch committed at once.
	MaxBatch int
	// Window is the current drain window (0 = unbounded).
	Window int
	// WindowGrows / WindowShrinks count adaptive window resizes.
	WindowGrows, WindowShrinks int64
}

type opKind int

const (
	opUpdate opKind = iota
	opScan
)

// request is one queued client operation; done/err/snap are written by the
// worker inside the node's atomicity domain and read by the blocked caller.
type request struct {
	kind    opKind
	payload []byte
	done    bool
	err     error
	snap    [][]byte
	// ch, under Options.DirectWait, is closed when the request resolves;
	// the awaiting client blocks on it instead of the node's condvar.
	ch chan struct{}
	// Observability: per-service op sequence number and admission time
	// (set under the atomicity domain when the observer is installed).
	id    int64
	start rt.Ticks
}

// Service is one node's concurrent front to one snapshot object. Clients
// call Update/Scan from any number of threads; exactly one dedicated
// thread must run Serve.
type Service struct {
	rtm  rt.Runtime
	obj  engine.Object
	opts Options

	// Guarded by the node's atomicity domain (rtm.Atomic / handler lock).
	q       []*request
	closed  bool
	serving bool
	stopped bool // worker exited with an error; no one will drain q
	window  int  // current drain cap (0 = unbounded)
	stats   Stats
	nextOp  int64
}

// New creates the service for one node's object. The object's protocol
// handler must be registered with the runtime as usual; the service only
// occupies the node's (single) client thread via Serve.
func New(r rt.Runtime, obj engine.Object, opts Options) *Service {
	if opts.MaxPending <= 0 {
		opts.MaxPending = DefaultMaxPending
	}
	window := opts.Window
	if opts.AdaptiveWindow {
		if window <= 0 {
			window = MinWindow
		}
		if window > opts.MaxPending {
			window = opts.MaxPending
		}
	} else if window < 0 {
		window = 0
	}
	s := &Service{rtm: r, obj: obj, opts: opts, window: window}
	s.stats.Window = window
	return s
}

// Stats returns a copy of the counters.
func (s *Service) Stats() Stats {
	var st Stats
	s.rtm.Atomic(func() { st = s.stats })
	return st
}

// QueueLen returns the current queue depth (for tests and monitoring).
func (s *Service) QueueLen() int {
	var n int
	s.rtm.Atomic(func() { n = len(s.q) })
	return n
}

// Close stops admission and lets Serve drain: already-queued requests are
// still served; subsequent Update/Scan calls fail with ErrClosed. Safe to
// call from any thread, more than once.
func (s *Service) Close() {
	s.rtm.Atomic(func() { s.closed = true })
}

// Update writes payload to this node's segment through the service,
// blocking until the batch containing it commits (or fails). The service
// and the engine keep payload without copying it (self-deliveries and
// in-process transports hand the same slice to handlers), so the caller
// must not mutate it after the call.
func (s *Service) Update(payload []byte) error {
	tk, err := s.UpdateAsync(payload)
	if err != nil {
		return err
	}
	return tk.Wait()
}

// Scan returns a snapshot through the service, blocking until a protocol
// scan issued after this call's admission completes. The returned slice is
// shared among the scan's waiters and must be treated as read-only.
func (s *Service) Scan() ([][]byte, error) {
	tk, err := s.ScanAsync()
	if err != nil {
		return nil, err
	}
	if err := tk.Wait(); err != nil {
		return nil, err
	}
	return tk.Snap(), nil
}

// Ticket is the handle to an operation that has been admitted (its place
// in the serving order is fixed) but not awaited yet.
type Ticket struct {
	s   *Service
	req *request
}

// Wait blocks until the operation commits or fails.
func (t *Ticket) Wait() error { return t.s.await(t.req) }

// Snap returns a scan ticket's snapshot after a successful Wait (nil for
// update tickets). Shared among the scan's waiters; treat as read-only.
func (t *Ticket) Snap() [][]byte { return t.req.snap }

// UpdateAsync admits an update and returns without waiting for it to
// commit; the ticket's Wait reports the outcome. This splits admission
// (which fixes the operation's position in the serving order) from
// completion, letting a client pipeline requests or overlap its own work
// with the batch's protocol rounds. As with Update, payload belongs to
// the service from the call on: the caller must not mutate it.
func (s *Service) UpdateAsync(payload []byte) (*Ticket, error) {
	req := &request{kind: opUpdate, payload: payload}
	if s.opts.DirectWait {
		req.ch = make(chan struct{})
	}
	if err := s.enqueue(req); err != nil {
		return nil, err
	}
	return &Ticket{s: s, req: req}, nil
}

// ScanAsync admits a scan and returns without waiting; after Wait the
// snapshot is available from Snap.
func (s *Service) ScanAsync() (*Ticket, error) {
	req := &request{kind: opScan}
	if s.opts.DirectWait {
		req.ch = make(chan struct{})
	}
	if err := s.enqueue(req); err != nil {
		return nil, err
	}
	return &Ticket{s: s, req: req}, nil
}

// enqueue admits the request, applying the backpressure policy.
func (s *Service) enqueue(req *request) error {
	if s.rtm.Crashed() {
		return rt.ErrCrashed
	}
	var verdict error
	admit := func() {
		switch {
		case s.stopped:
			// The worker exited with an error (node crash); nothing will
			// ever drain this queue again.
			verdict = rt.ErrCrashed
		case s.closed:
			verdict = ErrClosed
		case len(s.q) >= s.opts.MaxPending:
			// Only reachable under PolicyReject: PolicyBlock's wait
			// predicate holds the caller until there is room.
			s.stats.Rejected++
			verdict = ErrOverloaded
		default:
			if req.kind == opUpdate {
				s.stats.Updates++
			} else {
				s.stats.Scans++
			}
			if s.opts.Observer != nil {
				s.nextOp++
				req.id = s.nextOp
				req.start = s.rtm.Now()
				s.opts.Observer.OnOp(rt.OpEvent{
					T: req.start, Node: s.rtm.ID(), ID: req.id,
					Op: req.opName(), Phase: rt.PhaseStart,
				})
			}
			s.q = append(s.q, req)
		}
	}
	if s.opts.Policy == PolicyReject {
		s.rtm.Atomic(admit)
		return verdict
	}
	err := s.rtm.WaitUntilThen("svc: admission (backpressure)",
		func() bool { return s.stopped || s.closed || len(s.q) < s.opts.MaxPending },
		admit)
	if err != nil {
		return err
	}
	return verdict
}

// await blocks until the worker resolves the request.
func (s *Service) await(req *request) error {
	if req.ch != nil {
		// DirectWait: the worker closes the channel at resolution (or
		// failAll does if the worker dies), waking exactly this caller.
		// The close happens after the request's fields are finalized, so
		// the reads below are ordered by the channel.
		<-req.ch
		return req.err
	}
	err := s.rtm.WaitUntilThen("svc: await response",
		func() bool { return req.done },
		func() {})
	if err != nil {
		return err // node crashed while waiting
	}
	return req.err
}

// Serve runs the worker loop on the calling thread (the node's one client
// thread in the paper's model): it repeatedly drains the queue and serves
// it with batched protocol operations. It returns nil after Close once the
// queue is drained, or rt.ErrCrashed if the node crashes.
func (s *Service) Serve() error {
	s.rtm.Atomic(func() {
		if s.serving {
			panic("svc: Serve called twice")
		}
		s.serving = true
	})
	for {
		var batch []*request
		var closed bool
		err := s.rtm.WaitUntilThen("svc: worker idle",
			func() bool { return len(s.q) > 0 || s.closed },
			func() {
				batch = s.drainWindow()
				closed = s.closed
			})
		if err != nil {
			// The worker is the only thing that resolves requests; fail
			// everything still queued so DirectWait callers (who block on
			// per-request channels, not the runtime's crash-aware wait)
			// observe the crash instead of hanging forever.
			s.failAll(err)
			return err
		}
		if len(batch) == 0 {
			if closed {
				return nil
			}
			continue
		}
		s.serveCycle(batch)
	}
}

// drainWindow takes up to one window of requests off the queue and, under
// AdaptiveWindow, resizes the window from what it observed: a capped
// drain with work left behind means demand exceeds the window (double
// it); a full drain that used under a quarter of the window means the cap
// is slack (halve it). Must run inside the atomicity domain.
func (s *Service) drainWindow() []*request {
	batch := s.q
	if s.window > 0 && len(s.q) > s.window {
		batch = s.q[:s.window:s.window]
		s.q = s.q[s.window:]
	} else {
		s.q = nil
	}
	if s.opts.AdaptiveWindow {
		switch {
		case len(s.q) > 0 && s.window < s.opts.MaxPending:
			s.window *= 2
			if s.window > s.opts.MaxPending {
				s.window = s.opts.MaxPending
			}
			s.stats.WindowGrows++
		case len(s.q) == 0 && len(batch) < s.window/4 && s.window > MinWindow:
			s.window /= 2
			if s.window < MinWindow {
				s.window = MinWindow
			}
			s.stats.WindowShrinks++
		}
		s.stats.Window = s.window
	}
	return batch
}

// failAll resolves every queued request with err and stops admission.
// Called when Serve exits abnormally: without it, DirectWait callers
// would block forever on channels no worker will ever close.
func (s *Service) failAll(err error) {
	s.rtm.Atomic(func() {
		s.stopped = true
		for _, req := range s.q {
			req.err = err
			req.done = true
			s.observeEnd(req)
			if req.ch != nil {
				close(req.ch)
			}
		}
		s.q = nil
	})
}

// serveCycle serves one drained queue according to the configured mode.
func (s *Service) serveCycle(batch []*request) {
	switch {
	case s.opts.Serialize:
		for _, req := range batch {
			if req.kind == opUpdate {
				s.serveUpdates([]*request{req})
			} else {
				s.serveScans([]*request{req})
			}
		}
	case s.opts.Mode == ModeSequential:
		// Maximal same-kind runs, in arrival order.
		for i := 0; i < len(batch); {
			j := i
			for j < len(batch) && batch[j].kind == batch[i].kind {
				j++
			}
			if batch[i].kind == opUpdate {
				s.serveUpdates(batch[i:j])
			} else {
				s.serveScans(batch[i:j])
			}
			i = j
		}
	default: // ModeAtomic
		var ups, scans []*request
		for _, req := range batch {
			if req.kind == opUpdate {
				ups = append(ups, req)
			} else {
				scans = append(scans, req)
			}
		}
		if len(ups) > 0 {
			s.serveUpdates(ups)
		}
		if len(scans) > 0 {
			s.serveScans(scans)
		}
	}
}

// serveUpdates commits one update batch through one protocol UPDATE.
func (s *Service) serveUpdates(ups []*request) {
	payloads := make([][]byte, len(ups))
	for i, req := range ups {
		payloads[i] = req.payload
	}
	var err error
	switch {
	case s.opts.Coalesce != nil:
		err = s.obj.Update(s.opts.Coalesce(payloads))
	default:
		if b, ok := s.obj.(BatchObject); ok {
			err = b.UpdateBatch(payloads)
		} else {
			// Last-value-wins: the batch members are linearized
			// consecutively (arrival order) at the commit point; only the
			// last value is ever observable, as if each had been
			// immediately overwritten by its concurrent successor.
			err = s.obj.Update(payloads[len(payloads)-1])
		}
	}
	s.rtm.Atomic(func() {
		s.stats.ProtoUpdates++
		if len(ups) > s.stats.MaxBatch {
			s.stats.MaxBatch = len(ups)
		}
		for _, req := range ups {
			req.err = err
			req.done = true
			s.observeEnd(req)
			if req.ch != nil {
				close(req.ch)
			}
		}
	})
}

// serveScans answers a group of scan waiters with one shared protocol
// SCAN. Every waiter was admitted before the scan is issued, so the scan's
// linearization point lies inside each waiter's interval.
func (s *Service) serveScans(scans []*request) {
	snap, err := s.obj.Scan()
	s.rtm.Atomic(func() {
		s.stats.ProtoScans++
		for _, req := range scans {
			req.snap = snap
			req.err = err
			req.done = true
			s.observeEnd(req)
			if req.ch != nil {
				close(req.ch)
			}
		}
	})
}

// opName is the observer-facing operation name.
func (r *request) opName() string {
	if r.kind == opUpdate {
		return "svc.update"
	}
	return "svc.scan"
}

// observeEnd emits a request's end event (admission-to-resolution
// latency). Must run in the atomicity domain, like all request state.
func (s *Service) observeEnd(req *request) {
	if s.opts.Observer == nil {
		return
	}
	now := s.rtm.Now()
	s.opts.Observer.OnOp(rt.OpEvent{
		T: now, Node: s.rtm.ID(), ID: req.id, Op: req.opName(),
		Phase: rt.PhaseEnd, Dur: now - req.start, Err: req.err != nil,
	})
}

// ModeFor returns the serving mode appropriate for an engine name as used
// across the repository: sequentially-consistent engines (the SSO family)
// get ModeSequential, everything else ModeAtomic. The verdict comes from
// the engine registry when the engine is linked in; unregistered names
// fall back to the SSO naming convention so binaries that link no engines
// still resolve correctly.
func ModeFor(alg string) Mode {
	if in, err := engine.Lookup(alg); err == nil {
		if in.Sequential {
			return ModeSequential
		}
		return ModeAtomic
	}
	if alg == "sso" || alg == "sso-byz" {
		return ModeSequential
	}
	return ModeAtomic
}

// String implements fmt.Stringer for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeAtomic:
		return "atomic"
	case ModeSequential:
		return "sequential"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}
