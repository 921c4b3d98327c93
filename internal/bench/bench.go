// Package bench is the harness that regenerates the paper's evaluation
// artifacts: the Table I complexity comparison and the claim-by-claim
// latency experiments (√k scaling, amortized constant time, failure-free
// constant time, Byzantine behaviour, SSO fast scans, lattice agreement).
// All time is virtual, measured in units of the maximum message delay D;
// every run uses the worst-case delay model (every message takes exactly
// D) unless stated otherwise, so measured latencies correspond directly to
// the paper's complexity expressions.
package bench

import (
	"fmt"
	"math/rand"

	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// Algo names the engines the harness can run (registry names).
type Algo string

// Algorithms.
const (
	EQASO        Algo = "eqaso"
	ByzASO       Algo = "byzaso"
	SSOFast      Algo = "sso"
	Delporte     Algo = "delporte"
	StoreCollect Algo = "storecollect"
	Stacked      Algo = "stacked"
	LAASO        Algo = "laaso"
	ACR          Algo = "acr"
	Fastsnap     Algo = "fastsnap"
)

// TableAlgos is the Table I row order.
func TableAlgos() []Algo {
	return []Algo{Delporte, StoreCollect, Stacked, LAASO, ByzASO, EQASO, SSOFast}
}

// make1 builds one node of the engine via the registry.
func make1(a Algo, r rt.Runtime) (rt.Handler, engine.Object) {
	e, err := engine.New(string(a), r)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return e, e
}

// Faults selects the fault injection of a run.
type Faults struct {
	// Crashes crashes nodes 0..Crashes-1 at staggered times.
	Crashes int
	// Chains, if true, realizes the paper's failure-chain worst case
	// (Definition 11) instead of plain crashes: the crashing nodes form
	// chains of increasing length whose heads issue the exposed values.
	// Only meaningful for algorithms that forward values (EQ-ASO, SSO).
	Chains bool
}

// Config is one measured run.
type Config struct {
	Algo       Algo
	N, F       int
	OpsPerNode int     // operations per live node
	ScanRatio  float64 // fraction of scans (0.5 default-ish; set explicitly)
	Seed       int64
	Faults     Faults
	// UniformDelay uses random delays in (0, D] instead of constant D.
	UniformDelay bool
	// Check verifies the history (linearizability, or sequential
	// consistency for SSO) after the run.
	Check bool
	// Observer, if set, receives message events from the simulator and
	// operation events from every node that supports SetObserver
	// (EQ-ASO, SSO, Byz-ASO). The latency experiment feeds it an
	// obs.Metrics to get per-op histograms in D-units.
	Observer rt.Observer
}

// Result is one run's measurements.
type Result struct {
	Config
	K           int // actual failures injected
	Ops         int
	Msgs        int64
	VirtTimeD   float64
	WorstUpd    float64
	WorstScan   float64
	MeanUpd     float64
	MeanScan    float64
	MeanAll     float64
	P50, P99    float64
	CheckPassed bool
}

// keyOf identifies forwardable value messages for the chain adversary.
func keyOf(a Algo) func(rt.Message) (any, bool) {
	return func(m rt.Message) (any, bool) {
		switch msg := m.(type) {
		case eqaso.MsgValue:
			return msg.Val.TS, true
		case laaso.MsgValue:
			return msg.Val.TS, true
		}
		return nil, false
	}
}

// Run executes one configuration and returns its measurements.
func Run(cfg Config) (Result, error) {
	res := Result{Config: cfg}
	simCfg := sim.Config{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Observer: cfg.Observer}
	if !cfg.UniformDelay {
		simCfg.Delay = sim.Constant{Ticks: rt.TicksPerD}
	}

	liveFrom := 0 // first live (non-fault-designated) node
	var chains []sim.ChainSpec
	if cfg.Faults.Chains && cfg.Faults.Crashes > 0 {
		pool := make([]int, cfg.Faults.Crashes)
		for i := range pool {
			pool[i] = i
		}
		var used int
		chains, used = sim.BuildChains(pool, cfg.Faults.Crashes, cfg.N-1)
		res.K = used
		liveFrom = used
		simCfg.Adversary = sim.NewFailureChains(keyOf(cfg.Algo), chains...)
	} else {
		res.K = cfg.Faults.Crashes
		liveFrom = cfg.Faults.Crashes
	}

	c := harness.Build(simCfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		return make1(cfg.Algo, r)
	})
	if cfg.Observer != nil {
		for _, o := range c.Objects {
			if so, ok := o.(interface{ SetObserver(rt.Observer) }); ok {
				so.SetObserver(cfg.Observer)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Faults.Chains {
		// Chain heads invoke one update each; the adversary crashes
		// them mid-broadcast, creating the exposed values.
		for _, ch := range chains {
			head := ch.Nodes[0]
			c.Client(head, func(o *harness.OpRunner) {
				_, _ = o.Update()
			})
		}
	} else {
		for victim := 0; victim < cfg.Faults.Crashes; victim++ {
			c.W.CrashAt(victim, rt.Ticks(rng.Int63n(int64(10*rt.TicksPerD)))+1)
		}
		// Crashing nodes still run clients until they die.
		for victim := 0; victim < cfg.Faults.Crashes; victim++ {
			victim := victim
			c.Client(victim, func(o *harness.OpRunner) {
				for k := 0; k < cfg.OpsPerNode; k++ {
					if _, err := o.Update(); err != nil {
						return
					}
				}
			})
		}
	}

	// Live nodes: staggered mixed workloads. Their latencies are what we
	// report (pending ops of crashed nodes have no response event).
	for i := liveFrom; i < cfg.N; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(i)))
			_ = o.P.Sleep(rt.Ticks(rng.Int63n(int64(2 * rt.TicksPerD))))
			for k := 0; k < cfg.OpsPerNode; k++ {
				var err error
				if rng.Float64() < cfg.ScanRatio {
					_, err = o.Scan()
				} else {
					_, err = o.Update()
				}
				if err != nil {
					return
				}
			}
		})
	}

	h, err := c.Run()
	if err != nil {
		return res, fmt.Errorf("bench %s: %w", cfg.Algo, err)
	}
	st := harness.Latencies(h)
	ws := c.W.Stats()
	res.Ops = st.Count
	res.Msgs = ws.MsgsTotal
	res.VirtTimeD = ws.Now.DUnits()
	res.WorstUpd, res.WorstScan = st.WorstUpdate, st.WorstScan
	res.MeanUpd, res.MeanScan = st.MeanUpdate, st.MeanScan
	res.MeanAll = st.MeanAll
	res.P50, res.P99 = st.P50All, st.P99All
	if cfg.Check {
		if engine.MustLookup(string(cfg.Algo)).Sequential {
			res.CheckPassed = h.CheckSequentiallyConsistent().OK
		} else {
			res.CheckPassed = h.CheckLinearizable().OK
		}
		if !res.CheckPassed {
			return res, fmt.Errorf("bench %s: history check failed", cfg.Algo)
		}
	} else {
		res.CheckPassed = true
	}
	return res, nil
}
