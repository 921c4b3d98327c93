package chaos

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
	"mpsnap/internal/wal"
)

// chaosWALBatch is the WAL fsync batch for chaos runs: foreign values may
// ride a batch, while the protocol's critical points (own values before
// dissemination, checkpoints before vouches, prunes before execution)
// force explicit syncs regardless.
const chaosWALBatch = 8

// simLink realizes the schedule's drop and spike windows as a
// sim.LinkAdversary. State is mutated by scheduled events; the RNG is
// consulted only for links inside an active drop window, in send order,
// so runs replay exactly.
type simLink struct {
	rng   *rand.Rand
	drop  map[[2]int]float64
	extra map[[2]int]rt.Ticks
}

func newSimLink(seed int64) *simLink {
	return &simLink{
		rng:   rand.New(rand.NewSource(seed)),
		drop:  make(map[[2]int]float64),
		extra: make(map[[2]int]rt.Ticks),
	}
}

// OnSend implements sim.LinkAdversary.
func (l *simLink) OnSend(now rt.Ticks, src, dst int, kind string) sim.LinkFate {
	key := [2]int{src, dst}
	fate := sim.LinkFate{Extra: l.extra[key]}
	if p := l.drop[key]; p > 0 && l.rng.Float64() < p {
		fate.Drop = true
	}
	return fate
}

// midCrash arms scheduled mid-broadcast crashes: an armed node's next
// broadcast reaches only a random prefix of the destinations, then the
// node crashes — the paper's "crash while sending" failure mode.
type midCrash struct {
	rng   *rand.Rand
	armed map[int]bool
}

func newMidCrash(seed int64) *midCrash {
	return &midCrash{rng: rand.New(rand.NewSource(seed)), armed: make(map[int]bool)}
}

// OnBroadcast implements sim.Adversary.
func (a *midCrash) OnBroadcast(now rt.Ticks, src int, msg rt.Message, dsts []int) ([]int, bool) {
	if !a.armed[src] {
		return dsts, false
	}
	delete(a.armed, src)
	return dsts[:a.rng.Intn(len(dsts))], true
}

// RunSim executes one chaos run on the deterministic simulator. The
// entire run — schedule, workload, recorded history — is a function of
// cfg alone, so a failing seed replays byte-identically.
func RunSim(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	check := cfg.checker()
	sched := cfg.schedule()
	res := &Result{Schedule: sched}
	link := newSimLink(cfg.Seed + 1)
	adv := newMidCrash(cfg.Seed + 2)
	corr := newCorrupter(cfg.Seed+4, cfg.info.Byzantine)

	c := harness.Build(sim.Config{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Adversary: adv, Link: link, Wire: corr},
		func(r rt.Runtime) (rt.Handler, engine.Object) {
			return cfg.newNode(r)
		})

	// Crash-recovery: each node persists to an in-memory WAL (with GC of
	// the value log below the globally-vouched checkpoint); a restart
	// event replays the durable prefix, rejoins, and respawns the client.
	var walFiles []*wal.MemFile
	if sched.HasRestarts() {
		walFiles = make([]*wal.MemFile, cfg.N)
		for i, o := range c.Objects {
			walFiles[i] = wal.NewMemFile()
			o.(engine.Durable).AttachWAL(wal.NewWriter(walFiles[i], chaosWALBatch), true)
		}
	}

	// Observability trace: op/phase events from the objects (and service
	// fronts), fault events from the simulator's tracer. Raw send/deliver
	// traffic is deliberately NOT recorded — it would evict the op events
	// a failure post-mortem actually needs from the ring.
	var tr *obs.Trace
	if cfg.TraceDir != "" {
		capacity := cfg.TraceCap
		if capacity <= 0 {
			capacity = 8192
		}
		tr = obs.NewTrace(capacity)
		c.W.SetTracer(func(ev sim.TraceEvent) {
			switch ev.Kind {
			case "crash", "restart", "partition", "heal", "drop", "corrupt", "hold":
				tr.Sys(ev.T, ev.Kind, ev.Src, ev.Dst, ev.Msg)
			}
		})
		for _, o := range c.Objects {
			if so, ok := o.(interface{ SetObserver(rt.Observer) }); ok {
				so.SetObserver(tr)
			}
		}
	}

	// Streaming invariant monitor: consumes completions as the recorder
	// produces them; the first violation dumps the monitor transcript and
	// the obs ring as they stand at that moment.
	mon := attachMonitor(&cfg, sched, c.Rec, tr, res)

	// Inject the schedule. restartNode is assigned below (it closes over
	// the workload script); the scheduled callbacks only run inside Run,
	// long after the assignment.
	w := c.W
	var restartNode func(id int)
	for _, ev := range sched.Events {
		ev := ev
		switch ev.Kind {
		case EvCrash:
			if ev.Mid {
				// Arm the mid-broadcast crash; if the victim broadcasts
				// nothing within 2D, crash it outright (idempotent).
				w.After(ev.At, func() { adv.armed[ev.Node] = true })
				w.After(ev.At+2*rt.TicksPerD, func() { w.Crash(ev.Node) })
			} else {
				w.CrashAt(ev.Node, ev.At)
			}
		case EvPartition:
			w.After(ev.At, func() { w.Partition(ev.Groups...) })
		case EvHeal:
			w.After(ev.At, func() { w.Heal() })
		case EvDropOn:
			w.After(ev.At, func() { link.drop[[2]int{ev.Src, ev.Dst}] = ev.Prob })
		case EvDropOff:
			w.After(ev.At, func() { delete(link.drop, [2]int{ev.Src, ev.Dst}) })
		case EvSpikeOn:
			w.After(ev.At, func() { link.extra[[2]int{ev.Src, ev.Dst}] = ev.Extra })
		case EvSpikeOff:
			w.After(ev.At, func() { delete(link.extra, [2]int{ev.Src, ev.Dst}) })
		case EvCorruptOn:
			w.After(ev.At, func() { corr.windows[[2]int{ev.Src, ev.Dst}] = ev.Prob })
		case EvCorruptOff:
			w.After(ev.At, func() { delete(corr.windows, [2]int{ev.Src, ev.Dst}) })
		case EvRestart:
			w.After(ev.At, func() { restartNode(ev.Node) })
		}
	}

	deadline := cfg.Duration

	// Service layer (optional): wrap each node's object in a svc.Service
	// whose worker runs on a dedicated node thread; all of the node's
	// clients then share it. Services close shortly past the deadline —
	// strictly before the first unblock sweep — so drained workers exit
	// cleanly instead of being mistaken for stuck operations and
	// crash-aborted.
	fronts := make([]engine.Object, cfg.N)
	for i := range fronts {
		fronts[i] = c.Objects[i]
	}
	if cfg.Service {
		services := make([]*svc.Service, cfg.N)
		for i := 0; i < cfg.N; i++ {
			opts := svc.Options{Mode: svc.ModeFor(cfg.Engine)}
			if tr != nil {
				opts.Observer = tr
			}
			s := svc.New(w.Runtime(i), c.Objects[i], opts)
			services[i] = s
			fronts[i] = s
			w.GoNode(fmt.Sprintf("svc-%d", i), i, func(p *sim.Proc) {
				_ = s.Serve() // returns on drain (nil) or node crash
			})
		}
		w.After(deadline+graceTicks/2, func() {
			for _, s := range services {
				s.Close()
			}
		})
	}

	// Workload: every client thread alternates seeded updates/scans with
	// think time until the deadline. Restarted nodes respawn the same
	// script (after rejoining) under a fresh client id, so their post-
	// recovery values stay distinct from pre-crash ones.
	script := func(seed int64, rejoin engine.Rejoiner) func(o *harness.OpRunner) {
		return func(o *harness.OpRunner) {
			if rejoin != nil {
				rejoin.Rejoin()
			}
			rng := rand.New(rand.NewSource(seed))
			// Churn's adversarial workload: every third node hammers its
			// own segment (hot-segment update storms), the rest lean into
			// scan storms; all clients fire bursts of back-to-back
			// operations with halved think time.
			scanP, maxSleep := cfg.ScanRatio, cfg.MaxSleep
			if cfg.Churn {
				if o.Node()%3 == 0 {
					scanP = cfg.ScanRatio / 3
				} else {
					scanP = 1 - (1-cfg.ScanRatio)/3
				}
				maxSleep = cfg.MaxSleep / 2
			}
			for o.P.Now() < deadline {
				scans := rng.Float64() < scanP
				burst := 1
				if cfg.Churn {
					burst = 1 + rng.Intn(6)
				}
				for b := 0; b < burst; b++ {
					var err error
					if scans {
						_, err = o.Scan()
					} else {
						_, err = o.Update()
					}
					if err != nil {
						return // node crashed: op stays pending
					}
					if o.P.Now() >= deadline {
						return
					}
				}
				if err := o.P.Sleep(rt.Ticks(rng.Int63n(int64(maxSleep) + 1))); err != nil {
					return
				}
			}
		}
	}
	for i := 0; i < cfg.N; i++ {
		for cid := 0; cid < cfg.Clients; cid++ {
			seed := cfg.Seed*1009 + int64(i) + 7919*int64(cid)
			c.ClientOn(i, fronts[i], script(seed, nil))
		}
	}

	// Crash-recovery: replay the victim's durable WAL prefix (the unsynced
	// tail died with the process), rebuild the node on the same runtime,
	// un-crash it, and respawn its client — which first rejoins (re-
	// disseminating retained values above the recovered frontier and
	// requesting the delta it missed) and then resumes the workload. The
	// respawn seed mixes the node's incarnation count so a node restarted
	// twice does not replay the same RNG stream (op mix and sleeps) in
	// every incarnation.
	incarnation := make([]int64, cfg.N)
	restartNode = func(id int) {
		if !w.Crashed(id) || walFiles == nil {
			return
		}
		f := walFiles[id]
		f.Crash()
		st := wal.Recover(f.Durable(), cfg.N, id)
		h, obj, rj := cfg.recoverNode(w.Runtime(id), st, wal.NewWriter(f, chaosWALBatch))
		if tr != nil {
			if so, ok := obj.(interface{ SetObserver(rt.Observer) }); ok {
				so.SetObserver(tr)
			}
		}
		w.SetHandler(id, h)
		w.Restart(id)
		incarnation[id]++
		c.ClientOn(id, obj, script(cfg.Seed*1009+int64(id)+104729*incarnation[id], rj))
	}

	// Unblock sweeps: past the deadline plus grace, any operation still
	// blocked (its quorum lost to drops or excess crashes) has its node
	// crash-aborted so the run terminates with the op recorded as
	// pending. Each sweep either finds nothing or crashes at least one
	// node, so n+1 sweeps always suffice.
	for k := 1; k <= cfg.N+1; k++ {
		w.After(deadline+graceTicks*rt.Ticks(k), func() {
			for _, bw := range w.Blocked() {
				if bw.Node >= 0 && !w.Crashed(bw.Node) {
					res.Blocked = append(res.Blocked, bw.String())
					w.Crash(bw.Node)
				}
			}
		})
	}

	h, err := c.Run()
	res.Hist = h
	if err != nil {
		return res, err
	}
	st := w.Stats()
	res.Stats = &st
	res.Check = check(h)
	if cfg.forceCheckFail {
		res.Check = &history.Report{OK: false, Violations: []string{"forced failure (chaos test hook)"}}
	}
	harvestMonitor(mon, res)
	if tr != nil && (!res.Check.OK || cfg.TraceAlways || len(res.MonitorViolations) > 0) {
		path := filepath.Join(cfg.TraceDir,
			fmt.Sprintf("chaos-%s-seed%d-%s.jsonl", cfg.Engine, cfg.Seed, sched.Hash()))
		if err := tr.DumpJSONL(path); err != nil {
			return res, fmt.Errorf("chaos: %w", err)
		}
		res.TracePath = path
		res.TraceDropped = tr.Dropped()
	}
	return res, nil
}
