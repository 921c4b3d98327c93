package cluster

import (
	"errors"
	"fmt"
	"math/rand"

	"mpsnap/internal/chaos"
	"mpsnap/internal/core"
	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/wal"
)

// clusterWALBatch is the WAL fsync batch for cluster chaos runs (same
// rationale as the chaos harness: the protocol's critical points force
// explicit syncs regardless of batching).
const clusterWALBatch = 8

// clusterGrace mirrors the chaos harness's post-deadline grace before
// stuck operations are crash-aborted.
const clusterGrace = 30 * rt.TicksPerD

// RunConfig parameterizes one cluster chaos run: Shards independent
// EQ-ASO clusters of N nodes each (contiguous placement), every node
// running the full cluster stack, workload clients writing marked
// causal chains across shards, and one coordinator per shard taking
// validated GlobalScans.
type RunConfig struct {
	// Shards × N topology, each shard tolerating F of its members.
	Shards, N, F int
	// Seed derives everything: per-shard fault schedules, workload RNGs,
	// simulator delays.
	Seed int64
	// Duration of the workload in virtual ticks.
	Duration rt.Ticks
	// Mix is the per-shard fault mix: each shard gets its own
	// chaos.Generate schedule (seed offset by the shard index) remapped
	// onto its members. Mid-broadcast flags are ignored (cluster
	// broadcasts are loops of sends by construction).
	Mix chaos.Mix
	// Clients is the number of workload threads per node (default 1).
	Clients int
	// ScanRatio is each client's probability of scanning instead of
	// updating (default 0.2).
	ScanRatio float64
	// MaxSleep bounds each client's think time (default 2D).
	MaxSleep rt.Ticks
	// GlobalScanEvery is each coordinator's period between validated
	// GlobalScans (default 25D).
	GlobalScanEvery rt.Ticks
	// VNodes is the placement ring's virtual-node count (default
	// DefaultVNodes).
	VNodes int
	// KeysPerClient is each writer's private key-pool size (default 8).
	KeysPerClient int
	// CrashShard, if >= 0, crashes every member of that shard at 40% of
	// the run and restarts them (WAL recovery) at 55%.
	CrashShard int
	// PartitionShard, if >= 0, isolates that whole shard from the rest
	// of the topology during [30%, 60%] of the run (the shard keeps
	// internal quorum; only cross-shard routing is cut).
	PartitionShard int
	// Engine selects the snapshot engine every shard runs, by registry
	// name (default "eqaso"). Sequentially-consistent engines are
	// rejected: the cut validator assumes linearizable shard scans.
	Engine string
	// ShardEngines optionally overrides Engine per shard: entry s
	// applies to shard s, "" falls back to Engine. Shards running
	// restart faults need a durable (WAL-recovering) engine.
	ShardEngines []string

	// engines is the resolved per-shard registry info, filled by
	// normalize.
	engines []engine.Info
}

// DefaultRunConfig returns the standard run shape with the whole-shard
// faults disabled (their zero values would target shard 0).
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Shards: 2, N: 3, F: 1, Duration: 200 * rt.TicksPerD,
		Mix: chaos.DefaultMix(), CrashShard: -1, PartitionShard: -1,
	}
}

func (c *RunConfig) normalize() error {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.N <= 0 {
		c.N = 3
	}
	if c.N <= 2*c.F {
		return fmt.Errorf("cluster: shard size n=%d needs n > 2f (f=%d)", c.N, c.F)
	}
	if c.Duration <= 0 {
		c.Duration = 200 * rt.TicksPerD
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.ScanRatio == 0 {
		c.ScanRatio = 0.2
	}
	if c.MaxSleep <= 0 {
		c.MaxSleep = 2 * rt.TicksPerD
	}
	if c.GlobalScanEvery <= 0 {
		c.GlobalScanEvery = 25 * rt.TicksPerD
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.KeysPerClient <= 0 {
		c.KeysPerClient = 8
	}
	if c.CrashShard >= c.Shards {
		return fmt.Errorf("cluster: -shard-crash %d out of range (shards=%d)", c.CrashShard, c.Shards)
	}
	if c.PartitionShard >= c.Shards {
		return fmt.Errorf("cluster: -shard-partition %d out of range (shards=%d)", c.PartitionShard, c.Shards)
	}
	if c.Engine == "" {
		c.Engine = "eqaso"
	}
	if len(c.ShardEngines) > c.Shards {
		return fmt.Errorf("cluster: %d shard engines for %d shards", len(c.ShardEngines), c.Shards)
	}
	c.engines = make([]engine.Info, c.Shards)
	for s := 0; s < c.Shards; s++ {
		name := c.Engine
		if s < len(c.ShardEngines) && c.ShardEngines[s] != "" {
			name = c.ShardEngines[s]
		}
		in, err := engine.Lookup(name)
		if err != nil {
			return fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		if in.Sequential {
			return fmt.Errorf("cluster: engine %q is sequentially consistent; shards need linearizable scans for cut validation", name)
		}
		if err := in.Validate(c.N, c.F); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		restarts := c.Mix.Restarts > 0 || c.CrashShard == s
		if restarts && !in.Durable() {
			return fmt.Errorf("cluster: shard %d runs restart faults but engine %q has no WAL recovery", s, name)
		}
		c.engines[s] = in
	}
	return nil
}

// engineFor returns the resolved engine of a shard (normalize must have
// run).
func (c *RunConfig) engineFor(shard int) engine.Info { return c.engines[shard] }

// Report is one cluster chaos run's outcome. Violations (consistency)
// must be empty on every seed; CutErrs (availability: a cut that could
// not be assembled while shards were down or unreachable) are expected
// under whole-shard faults.
type Report struct {
	Shards      int   `json:"shards"`
	Nodes       int   `json:"nodes"`
	Updates     int64 `json:"updates"`
	UpdateErrs  int64 `json:"updateErrs"`
	Scans       int64 `json:"scans"`
	ScanErrs    int64 `json:"scanErrs"`
	GlobalScans int64 `json:"globalScans"`
	CutsOK      int64 `json:"cutsOK"`
	// CutRepairs counts cuts that needed at least one closure-repair
	// round before validating.
	CutRepairs int64    `json:"cutRepairs"`
	CutErrs    int64    `json:"cutErrs"`
	SkewMaxD   float64  `json:"skewMaxD"`
	SkewMeanD  float64  `json:"skewMeanD"`
	Violations []string `json:"violations,omitempty"`
	Blocked    []string `json:"blocked,omitempty"`
}

// OK reports whether the run saw no consistency violations and at least
// one validated cut.
func (r *Report) OK() bool { return len(r.Violations) == 0 && r.CutsOK > 0 }

func (r *Report) String() string {
	return fmt.Sprintf("shards=%d nodes=%d updates=%d(+%d err) scans=%d(+%d err) cuts=%d ok=%d repaired=%d err=%d skew(max=%.1fD mean=%.1fD) violations=%d blocked=%d",
		r.Shards, r.Nodes, r.Updates, r.UpdateErrs, r.Scans, r.ScanErrs,
		r.GlobalScans, r.CutsOK, r.CutRepairs, r.CutErrs, r.SkewMaxD, r.SkewMeanD,
		len(r.Violations), len(r.Blocked))
}

// rejoinable is the recovery face of a WAL-recovered engine.
type rejoinable interface{ Rejoin() }

// shardSchedules generates one fault schedule per shard (each over the
// shard's local IDs) from the run seed.
func shardSchedules(cfg RunConfig) []chaos.Schedule {
	scheds := make([]chaos.Schedule, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		scheds[s] = chaos.Generate(cfg.Seed+int64(s)*9973, cfg.N, cfg.F, cfg.Duration, cfg.Mix)
	}
	return scheds
}

// remapEvents rewrites a shard-local schedule onto the shard's global
// member IDs. Mid-broadcast flags are dropped: the cluster stack never
// issues runtime broadcasts (shard runtimes loop sends), so an armed
// mid-crash would only fire its fallback; a plain crash at the same tick
// is the equivalent fault.
func remapEvents(evs []chaos.Event, members []int) []chaos.Event {
	out := make([]chaos.Event, len(evs))
	for i, ev := range evs {
		ev.Mid = false
		switch ev.Kind {
		case chaos.EvCrash, chaos.EvRestart:
			ev.Node = members[ev.Node]
		case chaos.EvDropOn, chaos.EvDropOff, chaos.EvSpikeOn, chaos.EvSpikeOff,
			chaos.EvCorruptOn, chaos.EvCorruptOff:
			ev.Src, ev.Dst = members[ev.Src], members[ev.Dst]
		case chaos.EvPartition:
			groups := make([][]int, len(ev.Groups))
			for g, island := range ev.Groups {
				mapped := make([]int, len(island))
				for j, l := range island {
					mapped[j] = members[l]
				}
				groups[g] = mapped
			}
			ev.Groups = groups
		}
		out[i] = ev
	}
	return out
}

// mergeSchedules flattens per-source event streams into one global
// stream. Partition state on every backend is replace-not-merge, so
// overlapping per-shard partition episodes would heal each other; the
// merge rewrites every partition/heal event into the union of all
// sources' active islands at that instant (and a heal only when no
// island remains).
func mergeSchedules(sources [][]chaos.Event) []chaos.Event {
	type tagged struct {
		ev  chaos.Event
		src int
	}
	var all []tagged
	for si, evs := range sources {
		for _, ev := range evs {
			all = append(all, tagged{ev: ev, src: si})
		}
	}
	// Stable sort by time (source order breaks ties).
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].ev.At < all[j-1].ev.At; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	active := make(map[int][][]int)
	union := func() [][]int {
		var groups [][]int
		for si := range sources { // deterministic source order
			groups = append(groups, active[si]...)
		}
		return groups
	}
	out := make([]chaos.Event, 0, len(all))
	for _, t := range all {
		switch t.ev.Kind {
		case chaos.EvPartition:
			active[t.src] = t.ev.Groups
			out = append(out, chaos.Event{At: t.ev.At, Kind: chaos.EvPartition, Groups: union()})
		case chaos.EvHeal:
			delete(active, t.src)
			if u := union(); len(u) > 0 {
				out = append(out, chaos.Event{At: t.ev.At, Kind: chaos.EvPartition, Groups: u})
			} else {
				out = append(out, chaos.Event{At: t.ev.At, Kind: chaos.EvHeal})
			}
		default:
			out = append(out, t.ev)
		}
	}
	return out
}

// globalEvents builds the full fault stream for a run: the per-shard
// schedules remapped onto their members, plus the whole-shard crash/
// restart and whole-shard partition knobs, partition-aggregated.
func globalEvents(cfg RunConfig, m ShardMap, scheds []chaos.Schedule) []chaos.Event {
	sources := make([][]chaos.Event, 0, cfg.Shards+2)
	for s := 0; s < cfg.Shards; s++ {
		sources = append(sources, remapEvents(scheds[s].Events, m.Members[s]))
	}
	if cfg.CrashShard >= 0 {
		var evs []chaos.Event
		crashAt := cfg.Duration * 40 / 100
		restartAt := cfg.Duration * 55 / 100
		for _, id := range m.Members[cfg.CrashShard] {
			evs = append(evs,
				chaos.Event{At: crashAt, Kind: chaos.EvCrash, Node: id},
				chaos.Event{At: restartAt, Kind: chaos.EvRestart, Node: id})
		}
		sources = append(sources, evs)
	}
	if cfg.PartitionShard >= 0 {
		island := append([]int(nil), m.Members[cfg.PartitionShard]...)
		sources = append(sources, []chaos.Event{
			{At: cfg.Duration * 30 / 100, Kind: chaos.EvPartition, Groups: [][]int{island}},
			{At: cfg.Duration * 60 / 100, Kind: chaos.EvHeal},
		})
	}
	return mergeSchedules(sources)
}

// runLink realizes drop and spike windows for the sim backend (the
// cluster-topology counterpart of the chaos harness's link adversary).
type runLink struct {
	rng   *rand.Rand
	drop  map[[2]int]float64
	extra map[[2]int]rt.Ticks
}

func newRunLink(seed int64) *runLink {
	return &runLink{
		rng:   rand.New(rand.NewSource(seed)),
		drop:  make(map[[2]int]float64),
		extra: make(map[[2]int]rt.Ticks),
	}
}

// OnSend implements sim.LinkAdversary.
func (l *runLink) OnSend(now rt.Ticks, src, dst int, kind string) sim.LinkFate {
	key := [2]int{src, dst}
	fate := sim.LinkFate{Extra: l.extra[key]}
	if p := l.drop[key]; p > 0 && l.rng.Float64() < p {
		fate.Drop = true
	}
	return fate
}

// nodeBuilder wires one node's engine construction for both fresh boot
// and WAL recovery, capturing the rejoin handle and recovered segment.
type nodeBuilder struct {
	cfg     RunConfig
	m       ShardMap
	health  *Health
	files   []*wal.MemFile
	rejoins []rejoinable
}

func newNodeBuilder(cfg RunConfig, m ShardMap, health *Health) *nodeBuilder {
	total := m.NumNodes()
	b := &nodeBuilder{cfg: cfg, m: m, health: health,
		files: make([]*wal.MemFile, total), rejoins: make([]rejoinable, total)}
	for i := range b.files {
		b.files[i] = wal.NewMemFile()
	}
	return b
}

// nodeConfig builds the cluster Config for node id. On recovery the
// engine replays the durable WAL prefix and the router key map is
// re-seeded from the last segment the dead incarnation published.
func (b *nodeBuilder) nodeConfig(id int, recover bool) Config {
	var seed []byte
	c := Config{Map: b.m, Health: b.health}
	c.NewEngine = func(shard int, r rt.Runtime) (rt.Handler, engine.Object) {
		in := b.cfg.engineFor(shard)
		if !recover {
			nd := in.New(r)
			if d, ok := nd.(engine.Durable); ok {
				d.AttachWAL(wal.NewWriter(b.files[id], clusterWALBatch), true)
			}
			b.rejoins[id] = nil
			return nd, nd
		}
		f := b.files[id]
		st := wal.Recover(f.Durable(), r.N(), r.ID())
		if st.OwnTag != 0 {
			if v, ok := st.Log.Get(core.Timestamp{Tag: st.OwnTag, Writer: r.ID()}); ok {
				seed = v
			}
		}
		nd := in.Recover(r, st, wal.NewWriter(f, clusterWALBatch), true)
		b.rejoins[id] = nd.(rejoinable)
		return nd, nd
	}
	c.SeedSegment = func(shard int) []byte { return seed }
	return c
}

// markClient is the cross-shard workload: a writer issuing marked
// updates over a private key pool, each mark chaining to the writer's
// previous acked write, interleaved with keyed scans.
type markClient struct {
	writer  string
	rng     *rand.Rand
	keys    int
	lastKey string
	lastSeq int64
	seq     int64
}

func newMarkClient(writer string, seed int64, keys int) *markClient {
	return &markClient{writer: writer, rng: rand.New(rand.NewSource(seed)), keys: keys}
}

func (c *markClient) key() string {
	return fmt.Sprintf("%s/k%d", c.writer, c.rng.Intn(c.keys))
}

// step performs one workload operation; it returns false when the node
// died under the client (stop the loop).
func (c *markClient) step(nd *Node, scanRatio float64, rep *Report, lock func(func())) bool {
	if c.rng.Float64() < scanRatio {
		_, err := nd.Scan(c.key())
		lock(func() {
			if err != nil {
				rep.ScanErrs++
			} else {
				rep.Scans++
			}
		})
		return err == nil || !errors.Is(err, rt.ErrCrashed)
	}
	c.seq++
	mk := Mark{Writer: c.writer, Seq: c.seq, PrevKey: c.lastKey, PrevSeq: c.lastSeq}
	key := c.key()
	err := nd.Update(key, mk.Encode())
	lock(func() {
		if err != nil {
			rep.UpdateErrs++
		} else {
			rep.Updates++
		}
	})
	if err != nil {
		// The write may still have committed (lost ack); reusing the
		// sequence number for a different key is safe — both marks chain
		// to the same already-committed predecessor.
		c.seq--
		return !errors.Is(err, rt.ErrCrashed)
	}
	c.lastKey, c.lastSeq = key, c.seq
	return true
}

// recordCut folds one coordinator GlobalScan outcome into the report.
func recordCut(rep *Report, v *CutValidator, cut *Cut, err error, lock func(func())) {
	lock(func() {
		rep.GlobalScans++
		if err != nil {
			rep.CutErrs++
			return
		}
		if cut.Rounds > 1 {
			rep.CutRepairs++
		}
		if vio := v.Validate(cut); len(vio) > 0 {
			rep.Violations = append(rep.Violations, vio...)
			return
		}
		rep.CutsOK++
		skew := float64(cut.Skew()) / float64(rt.TicksPerD)
		if skew > rep.SkewMaxD {
			rep.SkewMaxD = skew
		}
		rep.SkewMeanD += skew // sum; finalized by the runner
	})
}

// finishSkew converts the accumulated skew sum into a mean.
func (r *Report) finishSkew() {
	if r.CutsOK > 0 {
		r.SkewMeanD /= float64(r.CutsOK)
	}
}

// RunSim executes one cluster chaos run on the deterministic simulator:
// Shards×N nodes, per-shard fault schedules (plus the whole-shard
// knobs), marked cross-shard workload, and per-shard coordinators taking
// closure-repaired GlobalScans checked by the CutValidator.
func RunSim(cfg RunConfig) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := ContiguousMap(cfg.Shards, cfg.N, cfg.F, cfg.VNodes)
	total := m.NumNodes()
	health := NewHealth(total)
	link := newRunLink(cfg.Seed + 1)
	w := sim.New(sim.Config{N: total, F: cfg.F, Seed: cfg.Seed, Observer: health, Link: link})
	scheds := shardSchedules(cfg)
	events := globalEvents(cfg, m, scheds)
	b := newNodeBuilder(cfg, m, health)
	validator := NewCutValidator(ValidatorOptions{CheckPlacement: true, RequireMarks: true})
	rep := &Report{Shards: cfg.Shards, Nodes: total}
	deadline := cfg.Duration
	noLock := func(fn func()) { fn() } // sim procs are scheduler-serialized

	nodes := make([]*Node, total)
	incarnation := make([]int64, total)

	spawnServe := func(id int) {
		nd := nodes[id]
		for si, s := range nd.Services() {
			s := s
			w.GoNode(fmt.Sprintf("svc-%d.%d", id, si), id, func(p *sim.Proc) { _ = s.Serve() })
		}
		w.GoNode(fmt.Sprintf("router-%d", id), id, func(p *sim.Proc) { _ = nd.ServeRouter() })
	}
	clientLoop := func(id, cid int, inc int64) func(p *sim.Proc) {
		writer := fmt.Sprintf("w%dc%d", id, cid)
		if inc > 0 {
			writer = fmt.Sprintf("w%dc%d.%d", id, cid, inc)
		}
		mc := newMarkClient(writer, cfg.Seed*1009+int64(id)+7919*int64(cid)+104729*inc, cfg.KeysPerClient)
		return func(p *sim.Proc) {
			nd := nodes[id]
			for p.Now() < deadline {
				if !mc.step(nd, cfg.ScanRatio, rep, noLock) {
					return
				}
				if p.Now() >= deadline {
					return
				}
				if err := p.Sleep(rt.Ticks(mc.rng.Int63n(int64(cfg.MaxSleep) + 1))); err != nil {
					return
				}
			}
		}
	}
	coordLoop := func(id int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(id)))
			for p.Now() < deadline {
				jitter := rt.Ticks(rng.Int63n(int64(cfg.GlobalScanEvery/4) + 1))
				if err := p.Sleep(cfg.GlobalScanEvery + jitter); err != nil {
					return
				}
				if p.Now() >= deadline {
					return
				}
				cut, err := nodes[id].GlobalScanClosed(validator, 0)
				if err != nil && errors.Is(err, rt.ErrCrashed) {
					return
				}
				recordCut(rep, validator, cut, err, noLock)
			}
		}
	}
	spawnClients := func(id int, inc int64) {
		for cid := 0; cid < cfg.Clients; cid++ {
			w.GoNode(fmt.Sprintf("client-%d.%d", id, cid), id, clientLoop(id, cid, inc))
		}
		s := id / cfg.N
		if id == m.Members[s][cfg.N-1] { // last member coordinates its shard
			w.GoNode(fmt.Sprintf("coord-%d", s), id, coordLoop(id))
		}
	}

	var buildErr error
	for id := 0; id < total; id++ {
		nd, err := NewNode(w.Runtime(id), b.nodeConfig(id, false))
		if err != nil {
			return nil, err
		}
		nodes[id] = nd
		w.SetHandler(id, nd.Handler())
	}
	for id := 0; id < total; id++ {
		spawnServe(id)
		spawnClients(id, 0)
	}

	// Restart: replay the durable WAL prefix into a fresh engine, rebuild
	// the whole node stack (router state dies with the incarnation; the
	// key map is re-seeded from the recovered segment), rejoin, and
	// respawn the serving threads and clients under a new incarnation.
	restartNode := func(id int) {
		if !w.Crashed(id) {
			return
		}
		b.files[id].Crash()
		nd, err := NewNode(w.Runtime(id), b.nodeConfig(id, true))
		if err != nil {
			buildErr = err
			return
		}
		nodes[id] = nd
		w.SetHandler(id, nd.Handler())
		w.Restart(id)
		incarnation[id]++
		inc := incarnation[id]
		rj := b.rejoins[id]
		w.GoNode(fmt.Sprintf("rejoin-%d.%d", id, inc), id, func(p *sim.Proc) {
			if rj != nil {
				rj.Rejoin()
			}
			spawnServe(id)
			if p.Now() < deadline {
				spawnClients(id, inc)
			}
		})
	}

	for _, ev := range events {
		ev := ev
		switch ev.Kind {
		case chaos.EvCrash:
			w.CrashAt(ev.Node, ev.At)
		case chaos.EvPartition:
			w.After(ev.At, func() { w.Partition(ev.Groups...) })
		case chaos.EvHeal:
			w.After(ev.At, func() { w.Heal() })
		case chaos.EvDropOn:
			w.After(ev.At, func() { link.drop[[2]int{ev.Src, ev.Dst}] = ev.Prob })
		case chaos.EvDropOff:
			w.After(ev.At, func() { delete(link.drop, [2]int{ev.Src, ev.Dst}) })
		case chaos.EvSpikeOn:
			w.After(ev.At, func() { link.extra[[2]int{ev.Src, ev.Dst}] = ev.Extra })
		case chaos.EvSpikeOff:
			w.After(ev.At, func() { delete(link.extra, [2]int{ev.Src, ev.Dst}) })
		case chaos.EvRestart:
			w.After(ev.At, func() { restartNode(ev.Node) })
		}
	}

	// Close everything shortly past the deadline — strictly before the
	// first unblock sweep — so drained workers and idle routers exit
	// instead of being mistaken for stuck operations.
	w.After(deadline+clusterGrace/2, func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	// Unblock sweeps: any operation still blocked past deadline + grace
	// lost its quorum to drops or excess crashes; crash-abort its node so
	// the run terminates. Each sweep either finds nothing or crashes at
	// least one node, so total+1 sweeps suffice.
	for k := 1; k <= total+1; k++ {
		w.After(deadline+clusterGrace*rt.Ticks(k), func() {
			for _, bw := range w.Blocked() {
				if bw.Node >= 0 && !w.Crashed(bw.Node) {
					rep.Blocked = append(rep.Blocked, bw.String())
					w.Crash(bw.Node)
				}
			}
		})
	}

	if err := w.Run(); err != nil {
		return rep, err
	}
	if buildErr != nil {
		return rep, buildErr
	}
	rep.finishSkew()
	return rep, nil
}
