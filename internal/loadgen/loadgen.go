// Package loadgen drives wall-clock load against an in-process TCP mesh:
// N asonode-equivalent processes (real sockets on loopback, the exact
// transport cmd/asonode deploys) fronted by svc Services, hammered by
// thousands of concurrent client sessions. It is the measurement engine
// behind cmd/asoload and the asobench wallclock experiment.
//
// Two generation disciplines:
//
//   - closed loop (Rate == 0): each client session issues its next
//     operation as soon as the previous one completes — throughput is
//     demand-bound and latency includes only service time + queueing
//     created by the other sessions;
//   - open loop (Rate > 0): operations are issued on a fixed schedule
//     (Rate ops/sec across all sessions) regardless of completions, the
//     discipline that exposes queueing collapse. A session that falls
//     behind its schedule issues immediately (burst catch-up) rather
//     than silently shedding load, and every op is timed from its due
//     time, so the wait a stall imposes on later ops is counted. Each
//     session draws its ops from its own seeded rng before issuing
//     them, so the op sequence depends on Seed alone.
//
// Key-space skew: each operation draws a key from a Zipf distribution
// over Keys keys (ZipfS > 1 skews toward hot keys; 0 means uniform) and
// routes to node key mod N. The snapshot object model is one segment per
// node, so the key only selects the target node and colours the payload —
// but the resulting per-node load imbalance is exactly what the skew knob
// is for.
//
// The tuned/legacy split (Config.Legacy) selects the whole pre- vs
// post-optimization stack in one flag: the transport's serial dispatch,
// per-frame writes and raceful batching, and the service layer's condvar
// completion and unbounded drain, versus pipelined per-source dispatch,
// coalesced flushes, channel completion and the adaptive drain window.
package loadgen

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/obs"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
)

// Config parameterizes one load run.
type Config struct {
	// Engine is the registered engine name (default "eqaso").
	Engine string
	// N and F size the mesh (defaults 4 and 1).
	N, F int
	// Clients is the number of concurrent client sessions (default 64).
	Clients int
	// Duration is the recording window (default 2s); Warmup runs before
	// it and is excluded from every reported number (default 500ms).
	Duration, Warmup time.Duration
	// ScanPct is the percentage of operations that are scans (0..100,
	// default 10).
	ScanPct int
	// Keys is the virtual key-space size (default 1024); ZipfS > 1 skews
	// key choice (and thus per-node load) Zipf-style, 0 means uniform.
	Keys  int
	ZipfS float64
	// Rate, when > 0, switches to open-loop generation at Rate ops/sec
	// across all sessions.
	Rate float64
	// Payload is the update payload size in bytes (default 16).
	Payload int
	// Seed drives key choice and the op mix.
	Seed int64
	// D is the transport's delay bound passed to the mesh (default 5ms).
	D time.Duration
	// MaxPending bounds each node's service queue (default svc default).
	MaxPending int
	// Legacy selects the pre-optimization transport and service path
	// (TCPConfig.Legacy, condvar completion, unbounded drain window).
	Legacy bool
	// FlushDelay overrides the transport's outbound coalescing window
	// (0 = transport default; negative disables). Ignored under Legacy.
	FlushDelay time.Duration

	// issued, if set, is called from a session's goroutine with each op
	// it issues, in issue order (tests compare op sequences across runs).
	issued func(client, node int, scan bool)
}

func (c *Config) fill() {
	if c.Engine == "" {
		c.Engine = "eqaso"
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.N > 1 && c.F == 0 {
		c.F = (c.N - 1) / 3
		if c.F == 0 {
			c.F = 1
		}
		if c.F > (c.N-1)/2 {
			c.F = (c.N - 1) / 2
		}
	}
	if c.Clients == 0 {
		c.Clients = 64
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.ScanPct == 0 {
		c.ScanPct = 10
	}
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.Payload == 0 {
		c.Payload = 16
	}
	if c.D == 0 {
		c.D = 5 * time.Millisecond
	}
}

// Path names the measured stack variant.
func (c *Config) Path() string {
	if c.Legacy {
		return "legacy"
	}
	return "tuned"
}

// LatencySummary is the client-visible latency digest of one op kind, in
// microseconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_us"`
	P90   float64 `json:"p90_us"`
	P99   float64 `json:"p99_us"`
	Max   float64 `json:"max_us"`
}

func summarize(h *obs.Histogram) LatencySummary {
	s := h.Snapshot()
	p50, p90, p99, max := s.Summary()
	return LatencySummary{Count: s.Count, P50: p50, P90: p90, P99: p99, Max: max}
}

// Result is one run's report.
type Result struct {
	Engine  string `json:"engine"`
	Clients int    `json:"clients"`
	N       int    `json:"n"`
	// Path is "tuned" or "legacy" (the pre-optimization stack).
	Path string `json:"path"`
	// Ops and Errors count operations completed inside the recording
	// window; OpsPerSec is Ops over the window's actual wall time.
	Ops       int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// Update and Scan are client-visible latencies (µs), recording-window
	// operations only.
	Update LatencySummary `json:"update"`
	Scan   LatencySummary `json:"scan"`
	// AllocsPerOp / BytesPerOp are the whole process's allocation deltas
	// across the recording window divided by recorded ops — every layer
	// from client goroutine to socket, not just the transport.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Aggregated service-layer counters across all nodes: amortization is
	// Updates/ProtoUpdates and Scans/ProtoScans.
	SvcUpdates      int64 `json:"svc_updates"`
	SvcScans        int64 `json:"svc_scans"`
	SvcProtoUpdates int64 `json:"svc_proto_updates"`
	SvcProtoScans   int64 `json:"svc_proto_scans"`
	SvcMaxBatch     int   `json:"svc_max_batch"`
	SvcWindow       int   `json:"svc_window"`
	SvcWindowGrows  int64 `json:"svc_window_grows"`
	SvcWindowShr    int64 `json:"svc_window_shrinks"`
}

// Run executes one load run and reports it.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	if _, err := engine.Lookup(cfg.Engine); err != nil {
		return Result{}, err
	}

	nodes, err := transport.NewLoopbackMesh(cfg.N, func(_ int, tc *transport.TCPConfig) {
		tc.F, tc.D = cfg.F, cfg.D
		tc.Legacy, tc.FlushDelay = cfg.Legacy, cfg.FlushDelay
	})
	if err != nil {
		return Result{}, err
	}
	defer func() {
		for _, tn := range nodes {
			tn.Close()
		}
	}()
	services := make([]*svc.Service, cfg.N)
	for i, tn := range nodes {
		eng := engine.MustLookup(cfg.Engine).New(tn.Runtime())
		tn.SetHandler(eng)
		services[i] = svc.New(tn.Runtime(), eng, svc.Options{
			Mode:       svc.ModeFor(cfg.Engine),
			MaxPending: cfg.MaxPending,
			// The optimized completion/batching path; Legacy keeps the
			// original condvar wait and unbounded drain.
			DirectWait:     !cfg.Legacy,
			AdaptiveWindow: !cfg.Legacy,
		})
	}
	var workers sync.WaitGroup
	for _, s := range services {
		workers.Add(1)
		go func(s *svc.Service) {
			defer workers.Done()
			_ = s.Serve()
		}(s)
	}

	updHist := obs.NewHistogram(obs.DefaultMicrosBuckets())
	scanHist := obs.NewHistogram(obs.DefaultMicrosBuckets())
	var ops, errops atomic.Int64
	start := time.Now()
	warmEnd := start.Add(cfg.Warmup)
	deadline := warmEnd.Add(cfg.Duration)

	// Allocation accounting: snapshot at the warmup boundary and at the
	// end, so warmup's pool-filling and connection setup are excluded.
	var m0, m1 runtime.MemStats
	var memOnce sync.Once
	payload := make([]byte, cfg.Payload)

	// pick draws one op's target node and kind from a session's rng.
	pick := func(c int, rng *rand.Rand, zipf *rand.Zipf) (node int, scan bool) {
		var key uint64
		if zipf != nil {
			key = zipf.Uint64()
		} else {
			key = uint64(rng.Intn(cfg.Keys))
		}
		node = int(key % uint64(cfg.N))
		scan = rng.Intn(100) < cfg.ScanPct
		if cfg.issued != nil {
			cfg.issued(c, node, scan)
		}
		return node, scan
	}
	// oneOp runs one op; a recorded op's latency counts from t0.
	oneOp := func(node int, scan bool, t0 time.Time, recording bool) {
		var err error
		if scan {
			_, err = services[node].Scan()
		} else {
			err = services[node].Update(payload)
		}
		if !recording {
			return
		}
		if err != nil {
			errops.Add(1)
			return
		}
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		if scan {
			scanHist.Observe(us)
		} else {
			updHist.Observe(us)
		}
		ops.Add(1)
	}

	var clients sync.WaitGroup
	var inflight sync.WaitGroup // open-loop ops outlive their session tick
	for c := 0; c < cfg.Clients; c++ {
		c := c
		clients.Add(1)
		go func() {
			defer clients.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*1_000_003))
			var zipf *rand.Zipf
			if cfg.ZipfS > 1 {
				zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
			}
			if cfg.Rate <= 0 { // closed loop
				for {
					now := time.Now()
					if now.After(deadline) {
						return
					}
					if !now.Before(warmEnd) {
						memOnce.Do(func() { runtime.ReadMemStats(&m0) })
					}
					node, scan := pick(c, rng, zipf)
					oneOp(node, scan, time.Now(), !now.Before(warmEnd))
				}
			}
			// Open loop: fixed per-session schedule of due times up to the
			// deadline. The session draws each op before issuing it
			// asynchronously, so a slow completion never delays the next
			// arrival; ops are recorded and timed by their due time.
			interval := time.Duration(float64(cfg.Clients) / cfg.Rate * float64(time.Second))
			first := start.Add(time.Duration(c) * interval / time.Duration(cfg.Clients))
			for due := first; !due.After(deadline); due = due.Add(interval) {
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				recording := !due.Before(warmEnd)
				if recording {
					memOnce.Do(func() { runtime.ReadMemStats(&m0) })
				}
				node, scan := pick(c, rng, zipf)
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					oneOp(node, scan, due, recording)
				}()
			}
		}()
	}
	clients.Wait()
	inflight.Wait()
	runtime.ReadMemStats(&m1)
	elapsed := time.Since(warmEnd)

	for _, s := range services {
		s.Close()
	}
	workers.Wait()

	res := Result{
		Engine: cfg.Engine, Clients: cfg.Clients, N: cfg.N, Path: cfg.Path(),
		Ops: ops.Load(), Errors: errops.Load(),
		Seconds: elapsed.Seconds(),
		Update:  summarize(updHist), Scan: summarize(scanHist),
	}
	if res.Seconds > 0 {
		res.OpsPerSec = float64(res.Ops) / res.Seconds
	}
	if res.Ops > 0 {
		res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops)
		res.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Ops)
	}
	for _, s := range services {
		st := s.Stats()
		res.SvcUpdates += st.Updates
		res.SvcScans += st.Scans
		res.SvcProtoUpdates += st.ProtoUpdates
		res.SvcProtoScans += st.ProtoScans
		if st.MaxBatch > res.SvcMaxBatch {
			res.SvcMaxBatch = st.MaxBatch
		}
		if st.Window > res.SvcWindow {
			res.SvcWindow = st.Window
		}
		res.SvcWindowGrows += st.WindowGrows
		res.SvcWindowShr += st.WindowShrinks
	}
	return res, nil
}
