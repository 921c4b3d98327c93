// Package harness wires snapshot-object implementations into the simulator
// and the history checker. Tests and benchmarks across the repository use
// it to run workloads, record histories, and measure operation latencies
// in units of D.
package harness

import (
	"fmt"
	"sort"

	"mpsnap/internal/engine"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// Cluster is a simulated deployment of one snapshot object.
type Cluster struct {
	W       *sim.World
	Objects []engine.Object
	Rec     *history.Recorder

	nextCID []int // per-node client-id counter (multi-client runs)
}

// Build constructs a cluster: for each node, mk creates the message handler
// and the client object (they are usually the same value).
func Build(cfg sim.Config, mk func(r rt.Runtime) (rt.Handler, engine.Object)) *Cluster {
	w := sim.New(cfg)
	c := &Cluster{W: w, Rec: history.NewRecorder(cfg.N), nextCID: make([]int, cfg.N)}
	c.Objects = make([]engine.Object, cfg.N)
	for i := 0; i < cfg.N; i++ {
		h, obj := mk(w.Runtime(i))
		w.SetHandler(i, h)
		c.Objects[i] = obj
	}
	return c
}

// OpRunner issues recorded operations for one node's client thread.
type OpRunner struct {
	c    *Cluster
	P    *sim.Proc
	obj  engine.Object
	node int
	cid  int
	seq  int
}

// Client spawns node's client thread running script and returns once the
// process is registered (the simulation starts at W.Run).
func (c *Cluster) Client(node int, script func(o *OpRunner)) {
	c.ClientOn(node, c.Objects[node], script)
}

// ClientOn is Client driving an alternative object front — typically a
// svc.Service wrapping the node's object, so several concurrent client
// threads per node can share one protocol instance. Each call gets a fresh
// client id; value uniqueness across a node's clients is preserved (the
// first client writes "v<node>-<seq>" exactly as single-client runs always
// did, client c>0 writes "v<node>.<c>-<seq>").
func (c *Cluster) ClientOn(node int, obj engine.Object, script func(o *OpRunner)) {
	cid := c.nextCID[node]
	c.nextCID[node]++
	name := fmt.Sprintf("client-%d", node)
	if cid > 0 {
		name = fmt.Sprintf("client-%d.%d", node, cid)
	}
	c.W.GoNode(name, node, func(p *sim.Proc) {
		script(&OpRunner{c: c, P: p, obj: obj, node: node, cid: cid})
	})
}

// Node returns the runner's node ID.
func (o *OpRunner) Node() int { return o.node }

// Object returns the object this runner drives (unrecorded).
func (o *OpRunner) Object() engine.Object { return o.obj }

// Update issues a recorded UPDATE with an automatically unique value
// ("v<node>-<seq>", or "v<node>.<cid>-<seq>" for extra clients) and
// returns the value written.
func (o *OpRunner) Update() (string, error) {
	o.seq++
	var v string
	if o.cid == 0 {
		v = fmt.Sprintf("v%d-%d", o.node, o.seq)
	} else {
		v = fmt.Sprintf("v%d.%d-%d", o.node, o.cid, o.seq)
	}
	return v, o.UpdateValue(v)
}

// UpdateValue issues a recorded UPDATE writing v.
func (o *OpRunner) UpdateValue(v string) error {
	pend := o.c.Rec.BeginUpdateAs(o.node, o.cid, v, o.c.W.Now())
	err := o.obj.Update([]byte(v))
	if err != nil {
		return err // pending: no response event
	}
	pend.End(o.c.W.Now())
	return nil
}

// Scan issues a recorded SCAN and returns the segment values ("" = ⊥).
func (o *OpRunner) Scan() ([]string, error) {
	pend := o.c.Rec.BeginScanAs(o.node, o.cid, o.c.W.Now())
	snap, err := o.obj.Scan()
	if err != nil {
		return nil, err
	}
	out := SnapStrings(snap)
	pend.EndScan(out, o.c.W.Now())
	return out, nil
}

// SnapStrings converts a payload vector to the history package's string
// representation (nil payload → history.NoValue).
func SnapStrings(snap [][]byte) []string {
	out := make([]string, len(snap))
	for i, b := range snap {
		if b != nil {
			out[i] = string(b)
		}
	}
	return out
}

// Run executes the simulation and finalizes the history.
func (c *Cluster) Run() (*history.History, error) {
	err := c.W.Run()
	return c.Rec.History(), err
}

// MustLinearizable runs the cluster and fails with a descriptive error if
// the run errors (other than expected crashes aborting client procs) or
// the history is not linearizable.
func (c *Cluster) MustLinearizable() (*history.History, error) {
	h, err := c.Run()
	if err != nil {
		return h, err
	}
	if rep := h.CheckLinearizable(); !rep.OK {
		return h, fmt.Errorf("history not linearizable: %d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	return h, nil
}

// LatencyStats summarizes operation latencies of a history in D units.
type LatencyStats struct {
	Count          int
	WorstUpdate    float64
	WorstScan      float64
	MeanUpdate     float64
	MeanScan       float64
	MeanAll        float64
	P50All, P99All float64
	updates, scans int
}

// Latencies computes per-type latency statistics over completed operations.
func Latencies(h *history.History) LatencyStats {
	var st LatencyStats
	var sumU, sumS float64
	var all []float64
	for _, op := range h.Ops {
		if op.Pending() {
			continue
		}
		l := (op.Resp - op.Inv).DUnits()
		st.Count++
		all = append(all, l)
		if op.Type == history.Update {
			st.updates++
			sumU += l
			if l > st.WorstUpdate {
				st.WorstUpdate = l
			}
		} else {
			st.scans++
			sumS += l
			if l > st.WorstScan {
				st.WorstScan = l
			}
		}
	}
	if st.updates > 0 {
		st.MeanUpdate = sumU / float64(st.updates)
	}
	if st.scans > 0 {
		st.MeanScan = sumS / float64(st.scans)
	}
	if st.Count > 0 {
		st.MeanAll = (sumU + sumS) / float64(st.Count)
		sort.Float64s(all)
		st.P50All = percentile(all, 0.50)
		st.P99All = percentile(all, 0.99)
	}
	return st
}

// percentile returns the p-quantile of sorted values (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
