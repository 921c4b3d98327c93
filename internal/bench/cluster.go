package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"

	"mpsnap/internal/cluster"
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// The cluster experiment measures the price of cross-shard consistency:
// a GlobalScan must coordinate a cut across every shard at one timestamp
// frontier and validate it, where a single-cluster scan only pays one
// EQ-ASO scan. Two questions, swept over shard counts on a fault-free
// simulator with per-shard data held constant:
//
//   - overhead at shards=1: the routed, validated GlobalScan against a
//     plain svc.Service scan on an identical cluster (the acceptance
//     gate — coordination machinery may cost at most a small factor);
//   - growth with shards: scan latency and cut skew (how far individual
//     shard scans land past the common frontier) as shards multiply.

// ClusterPoint is the GlobalScan cost at one shard count.
type ClusterPoint struct {
	Shards     int     `json:"shards"`
	Nodes      int     `json:"nodes"`
	Keys       int     `json:"keys"`  // mark-chain keys written before scanning
	Scans      int     `json:"scans"` // validated GlobalScans measured
	ScanMeanD  float64 `json:"scanMeanD"`
	ScanWorstD float64 `json:"scanWorstD"`
	SkewMeanD  float64 `json:"skewMeanD"`
	SkewMaxD   float64 `json:"skewMaxD"`
	Repairs    int     `json:"repairs"` // closure-repair rounds beyond the first
}

// ClusterBench is the full experiment result, serialized to
// BENCH_cluster.json by cmd/asobench -e cluster.
type ClusterBench struct {
	Env          Env   `json:"env"`
	N            int   `json:"n"` // nodes per shard
	F            int   `json:"f"` // crash bound per shard
	ShardCounts  []int `json:"shardCounts"`
	KeysPerShard int   `json:"keysPerShard"`
	Scans        int   `json:"scans"`
	Seed         int64 `json:"seed"`

	// BaselineScanD is the mean svc.Service scan latency on one plain
	// n-node cluster (same engine, same service front, no cluster layer).
	BaselineScanD float64 `json:"baselineScanD"`

	Points []ClusterPoint `json:"points"`

	// OneShardRatio is ScanMeanD at shards=1 over BaselineScanD: the
	// multiplicative cost of routing + cut assembly + validation when
	// there is nothing to coordinate across.
	OneShardRatio float64 `json:"oneShardRatio"`
}

// RunCluster sweeps shard counts, measuring validated GlobalScan latency
// and cut skew with keysPerShard mark-chain keys per shard, plus the
// single-cluster svc baseline for the shards=1 ratio.
func RunCluster(n, f int, shardCounts []int, keysPerShard, scans int, seed int64) (ClusterBench, error) {
	out := ClusterBench{
		Env: CaptureEnv(),
		N:   n, F: f, ShardCounts: shardCounts,
		KeysPerShard: keysPerShard, Scans: scans, Seed: seed,
	}
	base, err := baselineSvcScan(n, f, keysPerShard, scans, seed)
	if err != nil {
		return out, fmt.Errorf("cluster baseline: %w", err)
	}
	out.BaselineScanD = base
	for _, s := range shardCounts {
		p, err := clusterScanPoint(s, n, f, keysPerShard, scans, seed+int64(s)*131)
		if err != nil {
			return out, fmt.Errorf("cluster shards=%d: %w", s, err)
		}
		out.Points = append(out.Points, p)
		if s == 1 && base > 0 {
			out.OneShardRatio = p.ScanMeanD / base
		}
	}
	return out, nil
}

// baselineSvcScan times svc.Service.Scan on one plain n-node EQ-ASO
// cluster after keys sequential updates — the exact scan path a
// single-shard deployment without the cluster layer would use.
func baselineSvcScan(n, f, keys, scans int, seed int64) (float64, error) {
	w := sim.New(sim.Config{N: n, F: f, Seed: seed})
	services := make([]*svc.Service, n)
	for i := 0; i < n; i++ {
		nd := engine.MustLookup("eqaso").New(w.Runtime(i))
		w.SetHandler(i, nd)
		s := svc.New(w.Runtime(i), nd, svc.Options{})
		services[i] = s
		w.GoNode(fmt.Sprintf("svc-%d", i), i, func(p *sim.Proc) { _ = s.Serve() })
	}
	var total rt.Ticks
	var failed error
	probeDone := false
	// Closing from a node-unbound driver (not the probe's defer) makes
	// every node's idle waiter re-evaluate and drain; a node-0 proc only
	// wakes node 0's.
	w.Go("closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("probe done", func() bool { return probeDone })
		for _, s := range services {
			s.Close()
		}
	})
	w.GoNode("probe", 0, func(p *sim.Proc) {
		defer func() { probeDone = true }()
		for i := 0; i < keys; i++ {
			if err := services[0].Update([]byte(fmt.Sprintf("bench/k%d", i))); err != nil {
				failed = fmt.Errorf("update %d: %w", i, err)
				return
			}
		}
		for i := 0; i < scans; i++ {
			start := p.Now()
			if _, err := services[0].Scan(); err != nil {
				failed = fmt.Errorf("scan %d: %w", i, err)
				return
			}
			total += p.Now() - start
		}
	})
	if err := w.Run(); err != nil {
		return 0, err
	}
	if failed != nil {
		return 0, failed
	}
	return total.DUnits() / float64(scans), nil
}

// clusterScanPoint brings up a shards×n cluster topology on the
// simulator, writes one cross-shard mark chain of shards*keysPerShard
// keys, then times `scans` closure-repaired, validated GlobalScans from
// a node of shard 0.
func clusterScanPoint(shards, n, f, keysPerShard, scans int, seed int64) (ClusterPoint, error) {
	m := cluster.ContiguousMap(shards, n, f, 0)
	total := m.NumNodes()
	health := cluster.NewHealth(total)
	w := sim.New(sim.Config{N: total, F: f, Seed: seed, Observer: health})
	nodes := make([]*cluster.Node, total)
	for id := 0; id < total; id++ {
		nd, err := cluster.NewNode(w.Runtime(id), cluster.Config{
			Map:    m,
			Health: health,
			NewEngine: func(shard int, r rt.Runtime) (rt.Handler, engine.Object) {
				e := engine.MustLookup("eqaso").New(r)
				return e, e
			},
		})
		if err != nil {
			return ClusterPoint{}, err
		}
		nodes[id] = nd
		w.SetHandler(id, nd.Handler())
	}
	for id := 0; id < total; id++ {
		id := id
		for si, s := range nodes[id].Services() {
			s := s
			w.GoNode(fmt.Sprintf("svc-%d.%d", id, si), id, func(p *sim.Proc) { _ = s.Serve() })
		}
		w.GoNode(fmt.Sprintf("router-%d", id), id, func(p *sim.Proc) { _ = nodes[id].ServeRouter() })
	}

	keys := shards * keysPerShard
	pt := ClusterPoint{Shards: shards, Nodes: total, Keys: keys, Scans: scans}
	v := cluster.NewCutValidator(cluster.ValidatorOptions{CheckPlacement: true, RequireMarks: true})
	var scanTotal, scanWorst, skewTotal, skewMax rt.Ticks
	var failed error
	probeDone := false
	// See baselineSvcScan: the close must run node-unbound so every
	// node's idle router and shard worker re-evaluates and drains.
	w.Go("closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("probe done", func() bool { return probeDone })
		for _, nd := range nodes {
			nd.Close()
		}
	})
	w.GoNode("probe", 0, func(p *sim.Proc) {
		defer func() { probeDone = true }()
		nd := nodes[0]
		// One mark chain across all shards: the ring spreads the keys, so
		// successive marks usually cross shard boundaries and every cut's
		// closure check has real cross-shard predecessors to verify.
		var lastKey string
		var lastSeq int64
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("bench/k%d", i)
			mk := cluster.Mark{Writer: "bench", Seq: int64(i + 1), PrevKey: lastKey, PrevSeq: lastSeq}
			if err := nd.Update(key, mk.Encode()); err != nil {
				failed = fmt.Errorf("update %d: %w", i, err)
				return
			}
			lastKey, lastSeq = key, int64(i+1)
		}
		for i := 0; i < scans; i++ {
			start := p.Now()
			cut, err := nd.GlobalScanClosed(v, 0)
			if err != nil {
				failed = fmt.Errorf("global scan %d: %w", i, err)
				return
			}
			lat := p.Now() - start
			scanTotal += lat
			if lat > scanWorst {
				scanWorst = lat
			}
			skew := cut.Skew()
			skewTotal += skew
			if skew > skewMax {
				skewMax = skew
			}
			pt.Repairs += cut.Rounds - 1
		}
	})
	if err := w.Run(); err != nil {
		return pt, err
	}
	if failed != nil {
		return pt, failed
	}
	pt.ScanMeanD = scanTotal.DUnits() / float64(scans)
	pt.ScanWorstD = scanWorst.DUnits()
	pt.SkewMeanD = skewTotal.DUnits() / float64(scans)
	pt.SkewMaxD = skewMax.DUnits()
	return pt, nil
}

// Check enforces the shards=1 acceptance criterion: the full GlobalScan
// machinery over one shard may cost at most `limit`× the plain
// single-cluster svc scan path (growth with shard count is reported, not
// gated — it measures coordination, not overhead).
func (c ClusterBench) Check(limit float64) error {
	if c.OneShardRatio > limit {
		return fmt.Errorf("cluster: shards=1 GlobalScan is %.2f× the svc scan baseline (%.2fD vs %.2fD, limit %.2f×)",
			c.OneShardRatio, c.OneShardRatio*c.BaselineScanD, c.BaselineScanD, limit)
	}
	return nil
}

// JSON renders the result for BENCH_cluster.json.
func (c ClusterBench) JSON() ([]byte, error) { return json.MarshalIndent(c, "", "  ") }

// Render formats the experiment as the human-readable table printed by
// cmd/asobench -e cluster.
func (c ClusterBench) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cross-shard GlobalScan vs shard count: n=%d f=%d per shard, %d keys/shard, %d scans, fault-free\n",
		c.N, c.F, c.KeysPerShard, c.Scans)
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "shards\tnodes\tkeys\tscan mean\tscan worst\tskew mean\tskew max\trepairs\n")
	for _, p := range c.Points {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%d\n",
			p.Shards, p.Nodes, p.Keys, p.ScanMeanD, p.ScanWorstD, p.SkewMeanD, p.SkewMaxD, p.Repairs)
	}
	w.Flush()
	fmt.Fprintf(&sb, "baseline: plain svc scan on one %d-node cluster = %.1fD; shards=1 ratio %.2f× (must stay ≤1.2×)\n",
		c.N, c.BaselineScanD, c.OneShardRatio)
	sb.WriteString("shape: scan latency stays ~flat in shard count (shards are scanned in\n")
	sb.WriteString("parallel; the cut waits for the slowest shard, not the sum), while skew\n")
	sb.WriteString("grows mildly — more shards give the frontier more chances to land mid-op.\n")
	return sb.String()
}
