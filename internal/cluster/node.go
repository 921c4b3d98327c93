package cluster

import (
	"errors"
	"fmt"

	"mpsnap/internal/engine"
	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
)

// ClusterChannel is the mux channel the routing layer runs on; shard
// engines run on ShardChannel(s). Every node of the topology binds both.
const ClusterChannel = "cluster"

// ShardChannel names shard s's engine channel.
func ShardChannel(s int) string { return fmt.Sprintf("shard/%d", s) }

// DefaultTimeout is the per-request routing timeout when Config.Timeout
// is 0: generous against worst measured protocol latencies (≤ ~10D) plus
// chaos delay spikes.
const DefaultTimeout = 20 * rt.TicksPerD

// errTimeout marks a routed request whose contact never answered; the
// router retries the next shard member.
var errTimeout = errors.New("cluster: routed request timed out")

// ErrNoContact is returned when every routing attempt for an operation
// was exhausted (all shard members unresponsive or erroring).
var ErrNoContact = errors.New("cluster: no responsive shard contact")

// Config parameterizes one node of the cluster topology.
type Config struct {
	// Map is the initial shard map (Validate must pass). The node builds
	// an engine + service for every shard it is a member of.
	Map ShardMap
	// Provision lists additional maps whose owned shards are also bound
	// at construction (engines are static; a node that will gain shards
	// at a future map version must pre-provision them). A shard index
	// provisioned twice must have identical membership.
	Provision []ShardMap
	// NewEngine builds one shard engine on its shard-local runtime,
	// returning the engine's message handler and client face. The same
	// constructor must be used on every member. Required.
	NewEngine func(shard int, r rt.Runtime) (rt.Handler, engine.Object)
	// SvcOptions configures each owned shard's service front. Coalesce is
	// reserved (the node installs the cumulative key-map merger).
	SvcOptions svc.Options
	// SeedSegment, if set, returns the node's recovered cumulative key
	// segment for a shard (nil for none). A restarted node must resume
	// its router key map from the last segment it published, or its next
	// routed write would publish a fresh map and erase every key this
	// member served before the crash from the shard snapshot.
	SeedSegment func(shard int) []byte
	// Health, if set, orders routing contacts healthy-first and receives
	// timeout suspicions. Typically one shared Health fed by the
	// backend's message observer.
	Health *Health
	// Timeout bounds each routed request (default DefaultTimeout).
	Timeout rt.Ticks
}

// shardState is one owned shard: its service front plus this node's
// cumulative key map (router-thread-only state, same discipline as
// svc.Store's per-shard merge).
type shardState struct {
	shard int
	svc   *svc.Service
	cum   map[string][]byte
	order []string
}

// merge folds routed key writes into the cumulative map; see
// svc.Store's merge for why the map must be cumulative.
func (st *shardState) merge(payloads [][]byte) []byte {
	for _, p := range payloads {
		for _, rec := range svc.DecodeRecords(p) {
			if _, seen := st.cum[rec.K]; !seen {
				st.order = append(st.order, rec.K)
			}
			st.cum[rec.K] = rec.V
		}
	}
	recs := make([]svc.Record, 0, len(st.order))
	for _, k := range st.order {
		recs = append(recs, svc.Record{K: k, V: st.cum[k]})
	}
	return svc.EncodeRecords(recs)
}

// inbound is one routed request parked for the router thread (handlers
// must not block; the router serves the queue from a dedicated thread).
type inbound struct {
	src   int        // global sender to reply to (-1: local fast path)
	msg   rt.Message // MsgUpdateReq, MsgScanReq, or MsgCutReq
	local *localCut  // local fast-path cut target (src == -1)
}

// localCut is a cut request served without a network hop: GlobalScan on a
// member of the target shard parks it directly in the router queue.
type localCut struct {
	shard    int
	frontier rt.Ticks
	done     bool
	resp     MsgCutResp
}

// pendingCall is one outbound routed request awaiting its response.
type pendingCall struct {
	done bool
	resp rt.Message
}

// Node is one physical node's cluster stack: the mux routing its shard
// engines and the cluster channel, the owned shards' service fronts, the
// router serving routed requests, and the client API (Update/Scan/
// GlobalScan) that routes by the node's current shard map.
//
// Threads: the embedding application must run, per node, one thread per
// owned shard calling Serve on that shard's service (see Services) and
// one thread running ServeRouter. Update/Scan/GlobalScan may then be
// called from any number of client threads.
type Node struct {
	rtm rt.Runtime
	mx  *mux.Mux
	cl  rt.Runtime // the "cluster" channel's runtime (global IDs)
	cfg Config

	// Guarded by the node's atomicity domain.
	smap    ShardMap
	rings   map[uint64]*Ring
	owned   map[int]*shardState
	queue   []*inbound
	calls   map[uint64]*pendingCall
	nextReq uint64
	closed  bool
}

// NewNode builds the node's cluster stack on r and returns it. Register
// Handler() as the node's message handler before traffic flows.
func NewNode(r rt.Runtime, cfg Config) (*Node, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.NewEngine == nil {
		return nil, fmt.Errorf("cluster: Config.NewEngine is required")
	}
	if cfg.SvcOptions.Coalesce != nil {
		return nil, fmt.Errorf("cluster: Config.SvcOptions.Coalesce is reserved by the node")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	n := &Node{
		rtm:   r,
		mx:    mux.New(r),
		cfg:   cfg,
		smap:  cfg.Map,
		rings: make(map[uint64]*Ring),
		owned: make(map[int]*shardState),
		calls: make(map[uint64]*pendingCall),
		// Seed request IDs from the clock: a restarted incarnation must
		// not reuse IDs the dead one has responses in flight for, or a
		// stale response would complete a fresh call of another type.
		nextReq: uint64(r.Now()) << 24,
	}
	n.cl = n.mx.Channel(ClusterChannel)
	if err := n.mx.BindErr(ClusterChannel, rt.HandlerFunc(n.handleCluster)); err != nil {
		return nil, err
	}
	maps := append([]ShardMap{cfg.Map}, cfg.Provision...)
	bound := make(map[int][]int) // shard → members already bound
	for _, m := range maps {
		for _, s := range m.OwnedBy(r.ID()) {
			if prev, ok := bound[s]; ok {
				if !sameMembers(prev, m.Members[s]) {
					return nil, fmt.Errorf("cluster: shard %d provisioned twice with different members", s)
				}
				continue
			}
			if err := n.bindShard(s, m); err != nil {
				return nil, err
			}
			bound[s] = m.Members[s]
		}
	}
	return n, nil
}

func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bindShard builds shard s's engine on its shard-local runtime and its
// service front, binding the shard's mux channel.
func (n *Node) bindShard(s int, m ShardMap) error {
	members := m.Members[s]
	local := m.LocalID(s, n.rtm.ID())
	name := ShardChannel(s)
	srt := newShardRuntime(n.mx.Channel(name), members, local, m.F)
	h, obj := n.cfg.NewEngine(s, srt)
	if err := n.mx.BindErr(name, remapHandler{members: members, inner: h}); err != nil {
		return err
	}
	st := &shardState{shard: s, cum: make(map[string][]byte)}
	if n.cfg.SeedSegment != nil {
		for _, rec := range svc.DecodeRecords(n.cfg.SeedSegment(s)) {
			st.order = append(st.order, rec.K)
			st.cum[rec.K] = rec.V
		}
	}
	opts := n.cfg.SvcOptions
	opts.Coalesce = st.merge
	st.svc = svc.New(srt, obj, opts)
	n.owned[s] = st
	return nil
}

// Handler returns the node's top-level message handler (the mux).
func (n *Node) Handler() rt.Handler { return n.mx }

// Services returns the owned shards' service fronts in shard order; the
// embedding application must run each one's Serve on a dedicated thread.
func (n *Node) Services() []*svc.Service {
	var shards []int
	n.rtm.Atomic(func() {
		for s := range n.owned {
			shards = append(shards, s)
		}
	})
	sortInts(shards)
	out := make([]*svc.Service, 0, len(shards))
	for _, s := range shards {
		out = append(out, n.owned[s].svc)
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// OwnedShards returns the shard indices this node hosts engines for.
func (n *Node) OwnedShards() []int {
	var shards []int
	n.rtm.Atomic(func() {
		for s := range n.owned {
			shards = append(shards, s)
		}
	})
	sortInts(shards)
	return shards
}

// Close stops admission everywhere: owned services drain, the router
// serves what is queued and exits, new routed requests are refused.
func (n *Node) Close() {
	n.rtm.Atomic(func() { n.closed = true })
	for _, st := range n.owned {
		st.svc.Close()
	}
}

// Map returns the node's current shard map.
func (n *Node) Map() ShardMap {
	var m ShardMap
	n.rtm.Atomic(func() { m = n.smap })
	return m
}

// InstallMap adopts m if it is newer than the current map (routing only:
// engines for newly-owned shards must have been provisioned at
// construction). Returns whether the map was adopted.
func (n *Node) InstallMap(m ShardMap) (bool, error) {
	if err := m.Validate(); err != nil {
		return false, err
	}
	adopted := false
	n.rtm.Atomic(func() { adopted = n.adoptLocked(m) })
	return adopted, nil
}

// adoptLocked installs a newer map; must run in the atomicity domain.
func (n *Node) adoptLocked(m ShardMap) bool {
	if m.Version <= n.smap.Version || len(m.Members) == 0 {
		return false
	}
	n.smap = m
	return true
}

// ringLocked returns the cached placement ring of map m.
func (n *Node) ringLocked(m ShardMap) *Ring {
	if r, ok := n.rings[m.Version]; ok {
		return r
	}
	r := m.Ring()
	n.rings[m.Version] = r
	return r
}

// route returns the current map and the key's shard under it.
func (n *Node) route(key string) (ShardMap, int) {
	var m ShardMap
	var s int
	n.rtm.Atomic(func() {
		m = n.smap
		s = n.ringLocked(m).ShardFor(key)
	})
	return m, s
}

// ownedState returns the state of shard s if this node hosts it.
func (n *Node) ownedState(s int) *shardState {
	var st *shardState
	n.rtm.Atomic(func() { st = n.owned[s] })
	return st
}

// pickContact chooses a member of shard s to route to: spread by the
// caller's node ID so different routers load different members, advanced
// by the attempt number on retry, skipping suspects while any member is
// believed healthy.
func (n *Node) pickContact(m ShardMap, s, attempt int) int {
	members := m.Members[s]
	base := n.rtm.ID() + attempt
	if n.cfg.Health != nil {
		for i := 0; i < len(members); i++ {
			cand := members[(base+i)%len(members)]
			if !n.cfg.Health.Suspected(cand) {
				return cand
			}
		}
	}
	return members[base%len(members)]
}

// maxAttempts bounds routing retries for one operation: enough to try
// every member of the largest shard plus a map-refetch round.
func (n *Node) maxAttempts(m ShardMap) int {
	max := 0
	for _, ms := range m.Members {
		if len(ms) > max {
			max = len(ms)
		}
	}
	return max + 2
}

// Update writes key=val, routing to the owning shard (committing through
// this node's own service when it is a member — no network hop). It
// retries across shard members on timeout and re-routes under the newer
// map on a stale-map rejection.
func (n *Node) Update(key string, val []byte) error {
	payload := svc.EncodeRecords([]svc.Record{{K: key, V: val}})
	var lastErr error
	m, _ := n.route(key)
	for attempt := 0; attempt < n.maxAttempts(m); attempt++ {
		var s int
		m, s = n.route(key)
		if st := n.ownedState(s); st != nil {
			return st.svc.Update(payload)
		}
		contact := n.pickContact(m, s, attempt)
		resp, err := n.call(contact, func(req uint64) rt.Message {
			return MsgUpdateReq{Req: req, MapVer: m.Version, Shard: s, Key: key, Val: val}
		})
		if err == errTimeout {
			n.suspect(contact)
			lastErr = err
			continue
		}
		if err != nil {
			return err
		}
		r, ok := resp.(MsgUpdateResp)
		if !ok {
			lastErr = fmt.Errorf("cluster: unexpected %s from node %d", resp.Kind(), contact)
			continue
		}
		switch r.Status {
		case StatusOK:
			return nil
		case StatusStaleMap, StatusWrongShard:
			lastErr = fmt.Errorf("cluster: map v%d stale at node %d", m.Version, contact)
			continue // the adopted newer map re-routes on the next attempt
		default:
			lastErr = fmt.Errorf("cluster: update refused by node %d", contact)
			continue
		}
	}
	return fmt.Errorf("%w: update %q: %v", ErrNoContact, key, lastErr)
}

// Scan snapshots the key's owning shard and returns the key's per-member
// value vector (one entry per shard member, nil = that member's segment
// never wrote the key), from one linearizable shard snapshot.
func (n *Node) Scan(key string) ([][]byte, error) {
	var lastErr error
	m, _ := n.route(key)
	for attempt := 0; attempt < n.maxAttempts(m); attempt++ {
		var s int
		m, s = n.route(key)
		if st := n.ownedState(s); st != nil {
			snap, err := st.svc.Scan()
			if err != nil {
				return nil, err
			}
			return extractKey(snap, key), nil
		}
		contact := n.pickContact(m, s, attempt)
		resp, err := n.call(contact, func(req uint64) rt.Message {
			return MsgScanReq{Req: req, MapVer: m.Version, Shard: s, Key: key}
		})
		if err == errTimeout {
			n.suspect(contact)
			lastErr = err
			continue
		}
		if err != nil {
			return nil, err
		}
		r, ok := resp.(MsgScanResp)
		if !ok {
			lastErr = fmt.Errorf("cluster: unexpected %s from node %d", resp.Kind(), contact)
			continue
		}
		switch r.Status {
		case StatusOK:
			return r.Vals, nil
		case StatusStaleMap, StatusWrongShard:
			lastErr = fmt.Errorf("cluster: map v%d stale at node %d", m.Version, contact)
			continue
		default:
			lastErr = fmt.Errorf("cluster: scan refused by node %d", contact)
			continue
		}
	}
	return nil, fmt.Errorf("%w: scan %q: %v", ErrNoContact, key, lastErr)
}

// extractKey projects a shard snapshot onto one key.
func extractKey(snap [][]byte, key string) [][]byte {
	out := make([][]byte, len(snap))
	for node, seg := range snap {
		for _, rec := range svc.DecodeRecords(seg) {
			if rec.K == key {
				out[node] = rec.V
				break
			}
		}
	}
	return out
}

// FetchMap asks a remote node for its shard map and adopts it if newer
// (the refetch half of stale-map handling; normal operations also adopt
// maps piggybacked on rejections).
func (n *Node) FetchMap(from int) (ShardMap, error) {
	resp, err := n.call(from, func(req uint64) rt.Message { return MsgMapReq{Req: req} })
	if err != nil {
		return ShardMap{}, err
	}
	r, ok := resp.(MsgMapResp)
	if !ok {
		return ShardMap{}, fmt.Errorf("cluster: unexpected %s from node %d", resp.Kind(), from)
	}
	return r.Map, nil
}

// suspect reports a timed-out contact to the health tracker.
func (n *Node) suspect(id int) {
	if n.cfg.Health != nil {
		n.cfg.Health.Suspect(id)
	}
}

// beginCall allocates a pending call and builds its request under the
// atomicity domain.
func (n *Node) beginCall(build func(req uint64) rt.Message) (uint64, *pendingCall, rt.Message) {
	pc := &pendingCall{}
	var id uint64
	var msg rt.Message
	n.rtm.Atomic(func() {
		n.nextReq++
		id = n.nextReq
		n.calls[id] = pc
		msg = build(id)
	})
	return id, pc, msg
}

// call sends one routed request and waits for its response or timeout.
func (n *Node) call(dst int, build func(req uint64) rt.Message) (rt.Message, error) {
	id, pc, msg := n.beginCall(build)
	n.cl.Send(dst, msg)
	deadline := n.rtm.Now() + n.cfg.Timeout
	timedOut := false
	err := n.rtm.WaitUntilThen("cluster: await "+msg.Kind(),
		func() bool { return pc.done || n.rtm.Now() >= deadline },
		func() {
			if !pc.done {
				delete(n.calls, id)
				timedOut = true
			}
		})
	if err != nil {
		return nil, err
	}
	if timedOut {
		return nil, errTimeout
	}
	return pc.resp, nil
}

// handleCluster is the "cluster" channel handler: it parks routed
// requests for the router thread, completes this node's outbound calls,
// serves map fetches inline (they read one field — no blocking), and
// adopts newer maps piggybacked on any response.
func (n *Node) handleCluster(src int, msg rt.Message) {
	switch m := msg.(type) {
	case MsgUpdateReq, MsgScanReq, MsgCutReq:
		if n.closed {
			n.refuse(src, msg)
			return
		}
		n.queue = append(n.queue, &inbound{src: src, msg: msg})
	case MsgMapReq:
		n.cl.Send(src, MsgMapResp{Req: m.Req, Map: n.smap})
	case MsgUpdateResp:
		n.adoptLocked(m.Map)
		n.complete(m.Req, msg)
	case MsgScanResp:
		n.adoptLocked(m.Map)
		n.complete(m.Req, msg)
	case MsgCutResp:
		n.adoptLocked(m.Map)
		n.complete(m.Req, msg)
	case MsgMapResp:
		n.adoptLocked(m.Map)
		n.complete(m.Req, msg)
	}
}

// refuse answers a routed request on a closed node with StatusErr.
func (n *Node) refuse(src int, msg rt.Message) {
	switch m := msg.(type) {
	case MsgUpdateReq:
		n.cl.Send(src, MsgUpdateResp{Req: m.Req, Status: StatusErr})
	case MsgScanReq:
		n.cl.Send(src, MsgScanResp{Req: m.Req, Status: StatusErr})
	case MsgCutReq:
		n.cl.Send(src, MsgCutResp{Req: m.Req, Status: StatusErr, Shard: m.Shard, Frontier: m.Frontier})
	}
}

// complete resolves an outbound call (late responses after a timeout are
// dropped — the call entry is gone).
func (n *Node) complete(id uint64, msg rt.Message) {
	if pc, ok := n.calls[id]; ok {
		pc.resp = msg
		pc.done = true
		delete(n.calls, id)
	}
}

// enqueueLocal parks a local fast-path cut request in the router queue.
func (n *Node) enqueueLocal(lc *localCut) {
	n.rtm.Atomic(func() {
		n.queue = append(n.queue, &inbound{src: -1, local: lc})
	})
}

// ServeRouter runs the routing worker on the calling thread: it drains
// the parked request queue and serves it through the owned shards'
// services, batching scans (all scans and cut requests of one drain share
// one shard snapshot). Returns nil once Close has been called and the
// queue drained, or rt.ErrCrashed when the node crashes.
func (n *Node) ServeRouter() error {
	for {
		var batch []*inbound
		var closed bool
		err := n.rtm.WaitUntilThen("cluster: router idle",
			func() bool { return len(n.queue) > 0 || n.closed },
			func() {
				batch = n.queue
				n.queue = nil
				closed = n.closed
			})
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			if closed {
				return nil
			}
			continue
		}
		n.serveBatch(batch)
	}
}

// servedScan is one shard snapshot shared by a drain's scans and cuts.
type servedScan struct {
	ticket  *svc.Ticket
	start   rt.Ticks
	pending int
	err     error
}

// serveBatch serves one drained router queue: updates are admitted first
// (each key write becomes one service update, coalesced by the service
// into the shard's cumulative segment), then one shared scan per shard
// answers every scan and cut request of the drain.
func (n *Node) serveBatch(batch []*inbound) {
	m := n.Map()
	type pendingUpdate struct {
		in     *inbound
		ticket *svc.Ticket
	}
	var updates []pendingUpdate
	scans := make(map[int]*servedScan)
	var served []*inbound

	// ensureScan admits (at most) one shared scan per shard per drain.
	ensureScan := func(st *shardState) *servedScan {
		sc, ok := scans[st.shard]
		if !ok {
			sc = &servedScan{start: n.rtm.Now(), pending: st.svc.QueueLen()}
			tk, err := st.svc.ScanAsync()
			if err != nil {
				sc.err = err
			} else {
				sc.ticket = tk
			}
			scans[st.shard] = sc
		}
		return sc
	}

	for _, in := range batch {
		shard, mapVer := in.shard()
		st := n.ownedState(shard)
		if st == nil {
			n.reject(in, StatusWrongShard, m)
			continue
		}
		if in.src >= 0 && mapVer < m.Version {
			n.reject(in, StatusStaleMap, m)
			continue
		}
		switch req := in.msg.(type) {
		case MsgUpdateReq:
			payload := svc.EncodeRecords([]svc.Record{{K: req.Key, V: req.Val}})
			tk, err := st.svc.UpdateAsync(payload)
			if err != nil {
				n.reject(in, StatusErr, m)
				continue
			}
			updates = append(updates, pendingUpdate{in: in, ticket: tk})
		default: // MsgScanReq or a (routed or local) cut
			ensureScan(st)
			served = append(served, in)
		}
	}

	// Completion: updates in admission order, then the shared scans.
	for _, pu := range updates {
		req := pu.in.msg.(MsgUpdateReq)
		if err := pu.ticket.Wait(); err != nil {
			n.cl.Send(pu.in.src, MsgUpdateResp{Req: req.Req, Status: StatusErr})
			continue
		}
		n.cl.Send(pu.in.src, MsgUpdateResp{Req: req.Req, Status: StatusOK})
	}
	for _, sc := range scans {
		if sc.ticket == nil {
			continue
		}
		if err := sc.ticket.Wait(); err != nil {
			sc.err = err
		}
	}
	end := n.rtm.Now()
	for _, in := range served {
		shard, _ := in.shard()
		sc := scans[shard]
		if sc.err != nil {
			n.reject(in, StatusErr, m)
			continue
		}
		snap := sc.ticket.Snap()
		switch req := in.msg.(type) {
		case MsgScanReq:
			n.cl.Send(in.src, MsgScanResp{Req: req.Req, Status: StatusOK, Vals: extractKey(snap, req.Key)})
		case MsgCutReq:
			n.cl.Send(in.src, MsgCutResp{
				Req: req.Req, Status: StatusOK, Shard: shard, Frontier: req.Frontier,
				ScanStart: sc.start, ScanEnd: end, Pending: sc.pending, Segments: snap,
			})
		default: // local cut
			n.rtm.Atomic(func() {
				in.local.resp = MsgCutResp{
					Status: StatusOK, Shard: shard, Frontier: in.local.frontier,
					ScanStart: sc.start, ScanEnd: end, Pending: sc.pending, Segments: snap,
				}
				in.local.done = true
			})
		}
	}
}

// shard extracts the target shard and map version of a routed request.
func (in *inbound) shard() (int, uint64) {
	if in.local != nil {
		return in.local.shard, 0
	}
	switch req := in.msg.(type) {
	case MsgUpdateReq:
		return req.Shard, req.MapVer
	case MsgScanReq:
		return req.Shard, req.MapVer
	case MsgCutReq:
		return req.Shard, req.MapVer
	}
	return -1, 0
}

// reject answers a routed request with a non-OK status (carrying the
// responder's map so stale clients converge without a separate fetch).
// Local fast-path cuts cannot be stale or misrouted; a service error is
// reported through the same localCut slot.
func (n *Node) reject(in *inbound, status byte, m ShardMap) {
	if in.local != nil {
		n.rtm.Atomic(func() {
			in.local.resp = MsgCutResp{Status: status, Shard: in.local.shard, Frontier: in.local.frontier}
			in.local.done = true
		})
		return
	}
	switch req := in.msg.(type) {
	case MsgUpdateReq:
		n.cl.Send(in.src, MsgUpdateResp{Req: req.Req, Status: status, Map: m})
	case MsgScanReq:
		n.cl.Send(in.src, MsgScanResp{Req: req.Req, Status: status, Map: m})
	case MsgCutReq:
		n.cl.Send(in.src, MsgCutResp{Req: req.Req, Status: status, Map: m, Shard: req.Shard, Frontier: req.Frontier})
	}
}
