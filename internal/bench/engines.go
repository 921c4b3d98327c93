package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// The engine bake-off runs every registered engine through one identical
// two-phase workload on the fault-free constant-D simulator: first every
// node issues opsPerNode updates (staggered), then the cluster quiesces
// (all writes fully replicated everywhere), then every node issues
// opsPerNode scans. The scan phase is therefore contention-free — the
// regime where fastsnap's one-round fast path and acr's committed-cache
// hit must beat EQ-ASO's multi-round scan, which is the acceptance gate
// Check enforces. Latencies are computed from the recorded history, so
// engines without op-event instrumentation are measured identically.

// EnginePoint is one engine's measurements in the bake-off.
type EnginePoint struct {
	Engine string `json:"engine"`
	N      int    `json:"n"`
	F      int    `json:"f"`
	Unit   string `json:"unit"` // always "d" (sim backend)

	UpdateCount int     `json:"updateCount"`
	UpdateP50   float64 `json:"updateP50"`
	UpdateP99   float64 `json:"updateP99"`
	UpdateMax   float64 `json:"updateMax"`

	ScanCount int     `json:"scanCount"`
	ScanP50   float64 `json:"scanP50"`
	ScanP99   float64 `json:"scanP99"`
	ScanMax   float64 `json:"scanMax"`

	Msgs        int64 `json:"msgs"`
	CheckPassed bool  `json:"checkPassed"`
}

// Engines is the full bake-off result, serialized to BENCH_engines.json
// by cmd/asobench -e engines.
type Engines struct {
	Env        Env           `json:"env"`
	N          int           `json:"n"`
	OpsPerNode int           `json:"opsPerNode"`
	Seed       int64         `json:"seed"`
	Points     []EnginePoint `json:"points"`
}

// RunEngines executes the bake-off over every registered engine.
func RunEngines(n, opsPerNode int, seed int64) (Engines, error) {
	out := Engines{Env: CaptureEnv(), N: n, OpsPerNode: opsPerNode, Seed: seed}
	for _, name := range engine.Names() {
		p, err := engineSweep(name, n, opsPerNode, seed)
		if err != nil {
			return out, fmt.Errorf("engines %s: %w", name, err)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// engineSweep runs the two-phase workload on one engine.
func engineSweep(name string, n, opsPerNode int, seed int64) (EnginePoint, error) {
	in := engine.MustLookup(name)
	f := (n - 1) / 2
	if in.Byzantine {
		f = (n - 1) / 3
	}
	pt := EnginePoint{Engine: name, N: n, F: f, Unit: "d"}

	c := harness.Build(sim.Config{
		N: n, F: f, Seed: seed, Delay: sim.Constant{Ticks: rt.TicksPerD},
	}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		e := in.New(r)
		return e, e
	})

	// Quiescence point: by this virtual time every update has completed
	// AND its writes have reached all n servers (fault-free, delay ≤ D),
	// so the scan phase sees a stable, fully-replicated state. Generous:
	// worst fault-free update latency across the engines is ~6D plus the
	// 2D stagger.
	quiesce := rt.Ticks(10*opsPerNode+20) * rt.TicksPerD
	for i := 0; i < n; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			// Stagger the nodes so the update phase has real interleaving.
			_ = o.P.Sleep(rt.Ticks(i) * rt.TicksPerD / 4)
			for k := 0; k < opsPerNode; k++ {
				if _, err := o.Update(); err != nil {
					return
				}
			}
			if wait := quiesce - o.P.Now(); wait > 0 {
				if err := o.P.Sleep(wait); err != nil {
					return
				}
			}
			for k := 0; k < opsPerNode; k++ {
				if _, err := o.Scan(); err != nil {
					return
				}
			}
		})
	}

	h, err := c.Run()
	if err != nil {
		return pt, err
	}
	if in.Sequential {
		pt.CheckPassed = h.CheckSequentiallyConsistent().OK
	} else {
		pt.CheckPassed = h.CheckLinearizable().OK
	}
	if !pt.CheckPassed {
		return pt, fmt.Errorf("history check failed")
	}
	ws := c.W.Stats()
	pt.Msgs = ws.MsgsTotal

	var upd, scan []float64
	for _, op := range h.Ops {
		if op.Pending() {
			continue
		}
		l := (op.Resp - op.Inv).DUnits()
		if op.Type == history.Update {
			upd = append(upd, l)
		} else {
			scan = append(scan, l)
		}
	}
	pt.UpdateCount, pt.ScanCount = len(upd), len(scan)
	pt.UpdateP50, pt.UpdateP99, pt.UpdateMax = quantiles(upd)
	pt.ScanP50, pt.ScanP99, pt.ScanMax = quantiles(scan)
	return pt, nil
}

func quantiles(vals []float64) (p50, p99, max float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(vals)
	return percentile(vals, 0.50), percentile(vals, 0.99), vals[len(vals)-1]
}

func percentile(sorted []float64, p float64) float64 {
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// Point returns the named engine's row.
func (e Engines) Point(name string) (EnginePoint, bool) {
	for _, p := range e.Points {
		if p.Engine == name {
			return p, true
		}
	}
	return EnginePoint{}, false
}

// Check enforces the bake-off acceptance criteria: every engine's history
// check passed, and fastsnap's contention-free SCAN p50 is strictly below
// EQ-ASO's.
func (e Engines) Check() error {
	for _, p := range e.Points {
		if !p.CheckPassed {
			return fmt.Errorf("engines: %s failed its history check", p.Engine)
		}
	}
	fs, ok1 := e.Point("fastsnap")
	eq, ok2 := e.Point("eqaso")
	if !ok1 || !ok2 {
		return fmt.Errorf("engines: bake-off missing fastsnap or eqaso row")
	}
	if fs.ScanP50 >= eq.ScanP50 {
		return fmt.Errorf("engines: fastsnap scan p50 %.2fD is not below eqaso's %.2fD under the contention-free workload",
			fs.ScanP50, eq.ScanP50)
	}
	return nil
}

// JSON renders the result for BENCH_engines.json.
func (e Engines) JSON() ([]byte, error) { return json.MarshalIndent(e, "", "  ") }

// Render formats the bake-off as the human-readable table printed by
// cmd/asobench -e engines.
func (e Engines) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Engine bake-off: n=%d (byzantine engines use f=%d), %d updates + %d scans per node,\n",
		e.N, (e.N-1)/3, e.OpsPerNode, e.OpsPerNode)
	sb.WriteString("constant-D delays, scans issued after full quiescence (contention-free)\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "engine\tupd p50\tupd p99\tupd max\tscan p50\tscan p99\tscan max\tmsgs\tcheck\n")
	for _, p := range e.Points {
		check := "ok"
		if !p.CheckPassed {
			check = "FAIL"
		}
		fmt.Fprintf(w, "%s\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%d\t%s\n",
			p.Engine, p.UpdateP50, p.UpdateP99, p.UpdateMax,
			p.ScanP50, p.ScanP99, p.ScanMax, p.Msgs, check)
	}
	w.Flush()
	sb.WriteString("shape: with no scan/update contention, fastsnap's one-collect fast path and\n")
	sb.WriteString("acr's committed-cache hit finish in ~2D — below eqaso's multi-round scan —\n")
	sb.WriteString("while sso stays ~0 (local reads, sequential consistency only).\n")
	return sb.String()
}
