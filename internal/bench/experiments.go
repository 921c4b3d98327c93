package bench

import (
	"fmt"
	"math"
	mrand "math/rand"
	"strings"
	"text/tabwriter"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/la"
	"mpsnap/internal/rbc"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// Table1 regenerates the shape of the paper's Table I: per-algorithm worst
// and amortized (mean) UPDATE/SCAN latency in D units, failure-free and
// with k failures. Forwarding algorithms (EQ-ASO, SSO, LAASO) face the
// failure-chain adversary — their analytical worst case — while the
// others face random crash times.
func Table1(n, f, k, opsPerNode int, seed int64) (string, error) {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(&sb, "Table I reproduction: n=%d, f=%d (byzantine rows use f=%d), k=%d, %d ops/node, all delays = D\n",
		n, f, (n-1)/3, k, opsPerNode)
	fmt.Fprintf(w, "algorithm\tUPDATE worst\tUPDATE amort\tSCAN worst\tSCAN amort\tworst(k=%d)\tamort(k=%d)\tmsgs\n", k, k)
	for _, a := range TableAlgos() {
		af := f
		if a == ByzASO {
			af = (n - 1) / 3
		}
		free, err := Run(Config{Algo: a, N: n, F: af, OpsPerNode: opsPerNode, ScanRatio: 0.5, Seed: seed, Check: true})
		if err != nil {
			return "", err
		}
		chains := a == EQASO || a == SSOFast || a == LAASO
		faulty, err := Run(Config{Algo: a, N: n, F: af, OpsPerNode: opsPerNode, ScanRatio: 0.5, Seed: seed + 1,
			Faults: Faults{Crashes: min(k, af), Chains: chains}, Check: true})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "%s\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%d\n",
			a, free.WorstUpd, free.MeanUpd, free.WorstScan, free.MeanScan,
			math.Max(faulty.WorstUpd, faulty.WorstScan), faulty.MeanAll, free.Msgs)
	}
	w.Flush()
	sb.WriteString("paper's shapes: [19] O(D)/O(nD); [12] O(nD)/O(nD); stacking O(n²D); LA-ASO O(nD);\n")
	sb.WriteString("Byz O(kD); EQ-ASO O(√kD) worst + O(D) amortized; SSO scans O(1).\n")
	return sb.String(), nil
}

// SqrtK regenerates the √k worst-case experiment (Lemma 8). The failure
// chains of Definition 11 expose one value per interval: chain ℓ's value
// first reaches a correct node at ~(ℓ+1)·D and perturbs every equivalence
// quorum for the following ~D. A probe UPDATE invoked at t=0 — whose
// LatticeRenewal must stabilize EQ(V^{≤1}) — is therefore delayed until
// the last chain drains: ~(L+4)·D where L ≈ √(2k) is the longest chain.
// The pull-based LAASO baseline pays roughly a pull round (2D) per
// exposure instead.
func SqrtK(ks []int, _ int, seed int64) (string, error) {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	sb.WriteString("Probe UPDATE latency under failure chains (constant-D delays)\n")
	fmt.Fprintf(w, "k\tn\tL=longest chain\teqaso probe\t(probe-4D)/L\tlaaso probe\n")
	for _, k := range ks {
		n := 2*k + 3
		if n < 5 {
			n = 5
		}
		eq, L, err := SqrtKProbe(EQASO, n, k, seed)
		if err != nil {
			return "", err
		}
		lb, _, err := SqrtKProbe(LAASO, n, k, seed)
		if err != nil {
			return "", err
		}
		norm := (eq - 4) / float64(max(L, 1))
		fmt.Fprintf(w, "%d\t%d\t%d\t%.1fD\t%.2f\t%.1fD\n", k, n, L, eq, norm, lb)
	}
	w.Flush()
	sb.WriteString("shape: the eqaso probe grows like the longest chain L ≈ √(2k)·D (the\n")
	sb.WriteString("normalized column settles ~constant once L dominates the fixed 4-6D base\n")
	sb.WriteString("cost). The pull-based laaso runs the same workload for reference; chains\n")
	sb.WriteString("cannot form against it (it never forwards), so its column reflects pull\n")
	sb.WriteString("contention with the concurrent head updates instead.\n")
	return sb.String(), nil
}

// SqrtKProbe runs chain heads' updates plus one probe update on a live
// node and returns the probe's latency in D units and the longest chain.
//
// Chain hops take D-δ while every other message takes exactly D: the
// paper's adversary controls sub-D timing, and this offset is what makes
// chain m+1's exposure land strictly inside chain m's settlement window,
// keeping the equivalence quorum perturbed continuously (with exact ties,
// the predicate can slip through between two same-instant deliveries).
func SqrtKProbe(a Algo, n, k int, seed int64) (float64, int, error) {
	f := (n - 1) / 2
	pool := make([]int, k)
	for i := range pool {
		pool[i] = i
	}
	chains, used := sim.BuildChains(pool, k, n-1)
	longest := 1
	for _, ch := range chains {
		if len(ch.Nodes) > longest {
			longest = len(ch.Nodes)
		}
	}
	faulty := make(map[int]bool, used)
	for _, ch := range chains {
		for _, nd := range ch.Nodes[:len(ch.Nodes)-1] {
			faulty[nd] = true
		}
	}
	const delta = rt.TicksPerD / 20
	delay := sim.DelayFunc(func(src, dst int, kind string, now rt.Ticks, _ *mrand.Rand) rt.Ticks {
		if faulty[src] && kind == "value" {
			return rt.TicksPerD - delta
		}
		return rt.TicksPerD
	})
	cfg := sim.Config{N: n, F: f, Seed: seed, Delay: delay}
	if used > 0 {
		cfg.Adversary = sim.NewFailureChains(keyOf(a), chains...)
	}
	c := harnessBuild(cfg, a)
	for _, ch := range chains {
		head := ch.Nodes[0]
		c.Client(head, func(o *harness.OpRunner) { _, _ = o.Update() })
	}
	probe := used // first live node
	var latency rt.Ticks
	c.Client(probe, func(o *harness.OpRunner) {
		start := o.P.Now()
		if _, err := o.Update(); err != nil {
			return
		}
		latency = o.P.Now() - start
	})
	if _, err := c.Run(); err != nil {
		return 0, longest, fmt.Errorf("sqrtk %s k=%d: %w", a, k, err)
	}
	return latency.DUnits(), longest, nil
}

func harnessBuild(cfg sim.Config, a Algo) *harness.Cluster {
	return harness.Build(cfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		return make1(a, r)
	})
}

// Amortized regenerates the amortized-constant-time claim: with k fixed
// and the number of operations growing past √k, the mean per-operation
// latency flattens to a constant.
func Amortized(k int, opsList []int, seed int64) (string, error) {
	n := 2*k + 3
	f := (n - 1) / 2
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(&sb, "Amortized time, EQ-ASO, k=%d failure-chain faults, n=%d\n", k, n)
	fmt.Fprintf(w, "ops/node\ttotal ops\tmean\tp50\tp99\tworst\n")
	for _, ops := range opsList {
		res, err := Run(Config{Algo: EQASO, N: n, F: f, OpsPerNode: ops, ScanRatio: 0.5,
			Seed: seed, Faults: Faults{Crashes: k, Chains: true}, Check: ops <= 8})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "%d\t%d\t%.2fD\t%.1fD\t%.1fD\t%.1fD\n", ops, res.Ops, res.MeanAll,
			res.P50, res.P99, math.Max(res.WorstUpd, res.WorstScan))
	}
	w.Flush()
	sb.WriteString("shape: mean latency approaches a constant as operations exceed √k.\n")
	return sb.String(), nil
}

// FailureFree regenerates the unconditional failure-free constant-time
// claim and the baselines' growth with n: every message takes exactly D,
// every node runs a contended mixed workload.
func FailureFree(ns []int, opsPerNode int, seed int64) (string, error) {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	sb.WriteString("Failure-free worst op latency vs n (constant-D delays, contended)\n")
	header := "n"
	for _, a := range TableAlgos() {
		header += "\t" + string(a)
	}
	fmt.Fprintln(w, header)
	for _, n := range ns {
		row := fmt.Sprintf("%d", n)
		for _, a := range TableAlgos() {
			if a == Stacked && n > 16 {
				row += "\t(skip)"
				continue
			}
			f := (n - 1) / 2
			if a == ByzASO {
				f = (n - 1) / 3
			}
			res, err := Run(Config{Algo: a, N: n, F: f, OpsPerNode: opsPerNode, ScanRatio: 0.5, Seed: seed, Check: n <= 16})
			if err != nil {
				return "", err
			}
			row += fmt.Sprintf("\t%.1fD", math.Max(res.WorstUpd, res.WorstScan))
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
	sb.WriteString("shape: eqaso/sso stay flat; delporte's scans, storecollect, and the stacked\n")
	sb.WriteString("construction grow with n (stacking grows ~n² and is skipped past n=16).\n")
	return sb.String(), nil
}

// Byzantine regenerates the Byzantine ASO behaviour under two strategies:
// silent cohorts of size k (crash-like; the algorithm absorbs them at
// near-constant latency), and the tag-ratchet attack, where Byzantine
// nodes keep announcing maxTag+1 — the corroboration ladder limits them to
// one step per round trip, so a victim operation is stretched by ~one
// lattice iteration per ratchet step (the k-proportional interference
// behind the paper's O(k·D) bound).
func Byzantine(fs []int, opsPerNode int, seed int64) (string, error) {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	sb.WriteString("Byzantine ASO, n = 3f+1 (constant-D delays)\n")
	fmt.Fprintln(w, "f\tn\tstrategy\tworst\tmean\tmsgs")
	for _, f := range fs {
		n := 3*f + 1
		for _, k := range []int{0, f} {
			res, err := Run(Config{Algo: ByzASO, N: n, F: f, OpsPerNode: opsPerNode, ScanRatio: 0.5,
				Seed: seed, Faults: Faults{Crashes: k}, Check: true})
			if err != nil {
				return "", err
			}
			strat := "honest"
			if k > 0 {
				strat = fmt.Sprintf("%d silent", res.K)
			}
			fmt.Fprintf(w, "%d\t%d\t%s\t%.1fD\t%.2fD\t%d\n", f, n, strat,
				math.Max(res.WorstUpd, res.WorstScan), res.MeanAll, res.Msgs)
		}
	}
	// Tag-ratchet rows: probe scan latency while the attack is running.
	for _, steps := range []int{0, 4, 8, 16} {
		lat, err := byzRatchetProbe(2, steps, seed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "2\t7\tratchet ×%d\t%.1fD\t\t\n", steps, lat)
	}
	w.Flush()
	sb.WriteString("shape: silent cohorts cost ~nothing. The tag-ratchet attack (Byzantine\n")
	sb.WriteString("nodes perpetually announcing maxTag+1) cannot starve operations either:\n")
	sb.WriteString("the corroboration ladder needs a full RBC round (≥3D) per step while a\n")
	sb.WriteString("victim's lattice retry takes 2D, so interference is bounded by a couple\n")
	sb.WriteString("of extra iterations regardless of attack depth — within the paper's\n")
	sb.WriteString("O(k·D) bound.\n")
	return sb.String(), nil
}

// byzRatchetProbe measures one scan's latency at a live node while f
// Byzantine nodes ratchet tags upward `steps` times.
func byzRatchetProbe(f, steps int, seed int64) (float64, error) {
	n := 3*f + 1
	w := sim.New(sim.Config{N: n, F: f, Seed: seed, Delay: sim.Constant{Ticks: rt.TicksPerD}})
	nodes := make([]engine.Engine, n)
	for i := 0; i < n; i++ {
		nodes[i] = engine.MustLookup("byzaso").New(w.Runtime(i))
		w.SetHandler(i, nodes[i])
	}
	// Byzantine ratchet: raw RBC instances announcing growing tags.
	for b := 0; b < f; b++ {
		layer := rbc.New(w.Runtime(b), nil)
		w.Go(fmt.Sprintf("ratchet-%d", b), func(p *sim.Proc) {
			for s := 1; s <= steps; s++ {
				layer.Broadcast(encodeByzTag(rt.Ticks(s)))
				if err := p.Sleep(2 * rt.TicksPerD); err != nil {
					return
				}
			}
		})
	}
	probe := f
	var latency rt.Ticks
	w.GoNode("probe", probe, func(p *sim.Proc) {
		// Scan in the middle of the attack, when the ratchet pipeline
		// is warm — the adversary's best window.
		_ = p.Sleep(6 * rt.TicksPerD)
		start := p.Now()
		if _, err := nodes[probe].Scan(); err != nil {
			return
		}
		latency = p.Now() - start
	})
	if err := w.Run(); err != nil {
		return 0, err
	}
	return latency.DUnits(), nil
}

// encodeByzTag mirrors byzaso's tag payload encoding (kind byte 2 + 8-byte
// big-endian tag).
func encodeByzTag(tag rt.Ticks) []byte {
	buf := make([]byte, 9)
	buf[0] = 2
	for i := 0; i < 8; i++ {
		buf[8-i] = byte(uint64(tag) >> (8 * i))
	}
	return buf
}

// SSOScan regenerates the fast-scan rows: the SSO's scans complete in zero
// time with zero messages while its updates match EQ-ASO's.
func SSOScan(n, opsPerNode int, seed int64) (string, error) {
	f := (n - 1) / 2
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(&sb, "SSO-Fast-Scan vs EQ-ASO, n=%d, scan-heavy workload (constant-D delays)\n", n)
	fmt.Fprintln(w, "algorithm\tscan worst\tscan mean\tupdate worst\tmsgs total")
	for _, a := range []Algo{EQASO, SSOFast} {
		res, err := Run(Config{Algo: a, N: n, F: f, OpsPerNode: opsPerNode, ScanRatio: 0.75, Seed: seed, Check: true})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "%s\t%.2fD\t%.2fD\t%.1fD\t%d\n", a, res.WorstScan, res.MeanScan, res.WorstUpd, res.Msgs)
	}
	w.Flush()
	sb.WriteString("shape: SSO scans take 0D and send 0 messages; updates match EQ-ASO.\n")
	return sb.String(), nil
}

// Messages reports per-operation message complexity: total messages sent
// divided by completed operations, per algorithm, on the same contended
// failure-free workload. The paper optimizes time; this table records the
// message price each design pays for it (EQ-ASO's proactive forwarding is
// O(n²) messages per new value; Bracha RBC costs another factor).
func Messages(n, opsPerNode int, seed int64) (string, error) {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(&sb, "Message complexity, n=%d, %d ops/node (constant-D delays)\n", n, opsPerNode)
	fmt.Fprintln(w, "algorithm\tmsgs total\tmsgs/op\tworst op")
	for _, a := range TableAlgos() {
		if a == Stacked && n > 16 {
			continue
		}
		f := (n - 1) / 2
		if a == ByzASO {
			f = (n - 1) / 3
		}
		res, err := Run(Config{Algo: a, N: n, F: f, OpsPerNode: opsPerNode, ScanRatio: 0.5, Seed: seed, Check: true})
		if err != nil {
			return "", err
		}
		perOp := float64(res.Msgs) / float64(max(res.Ops, 1))
		worst := math.Max(res.WorstUpd, res.WorstScan)
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1fD\n", a, res.Msgs, perOp, worst)
	}
	w.Flush()
	sb.WriteString("shape: eqaso trades O(n²) value-forwarding messages for its flat latency;\n")
	sb.WriteString("byzaso pays the additional Bracha amplification; the double-collect family\n")
	sb.WriteString("sends fewer messages per op but many more ops' worth of rounds.\n")
	return sb.String(), nil
}

// Lattice regenerates the early-stopping lattice agreement comparison:
// EQ-LA vs the pull-based baseline under failure chains of size k.
func Lattice(ks []int, seed int64) (string, error) {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	sb.WriteString("One-shot lattice agreement under failure chains (constant-D delays)\n")
	fmt.Fprintln(w, "k\tn\teqla worst\troundla worst")
	for _, k := range ks {
		n := 2*k + 3
		if n < 5 {
			n = 5
		}
		eq, err := RunLAProbe(true, n, k, seed)
		if err != nil {
			return "", err
		}
		rl, err := RunLAProbe(false, n, k, seed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "%d\t%d\t%.1fD\t%.1fD\n", k, n, eq, rl)
	}
	w.Flush()
	sb.WriteString("shape: EQ-LA's worst decision grows ~√k under its own worst-case adversary.\n")
	sb.WriteString("The failure-chain adversary exploits proactive forwarding, so it cannot\n")
	sb.WriteString("attack the pull baseline at all (that column is failure-free); the pull\n")
	sb.WriteString("baseline's Θ(n·D) weakness under proposal storms is shown separately in\n")
	sb.WriteString("the staggered-proposal comparison (internal/la tests, examples).\n")
	return sb.String(), nil
}

// RunLAProbe measures the worst decision latency of live proposers under
// chain faults (EQ-LA when eq is true, the pull baseline otherwise).
func RunLAProbe(eq bool, n, k int, seed int64) (float64, error) {
	f := (n - 1) / 2
	keyOf := func(m rt.Message) (any, bool) {
		if mv, ok := m.(la.OSValue); ok {
			return mv.Val.TS, true
		}
		return nil, false
	}
	pool := make([]int, k)
	for i := range pool {
		pool[i] = i
	}
	chains, used := sim.BuildChains(pool, k, n-1)
	cfg := sim.Config{N: n, F: f, Seed: seed, Delay: sim.Constant{Ticks: rt.TicksPerD}}
	if used > 0 {
		cfg.Adversary = sim.NewFailureChains(keyOf, chains...)
	}
	w := sim.New(cfg)
	propose := make([]func([]byte) (interface{ Len() int }, error), n)
	for i := 0; i < n; i++ {
		if eq {
			nd := la.NewEQLA(w.Runtime(i))
			w.SetHandler(i, nd)
			p := nd.Propose
			propose[i] = func(b []byte) (interface{ Len() int }, error) { return p(b) }
		} else {
			nd := la.NewRoundLA(w.Runtime(i))
			w.SetHandler(i, nd)
			p := nd.Propose
			propose[i] = func(b []byte) (interface{ Len() int }, error) { return p(b) }
		}
	}
	// Chain heads propose (their value broadcast triggers the chain).
	for _, ch := range chains {
		head := ch.Nodes[0]
		w.GoNode(fmt.Sprintf("head-%d", head), head, func(p *sim.Proc) {
			_, _ = propose[head]([]byte(fmt.Sprintf("x%d", head)))
		})
	}
	var worst rt.Ticks
	for i := used; i < n; i++ {
		i := i
		w.GoNode(fmt.Sprintf("live-%d", i), i, func(p *sim.Proc) {
			_ = p.Sleep(rt.TicksPerD / 2)
			start := p.Now()
			if _, err := propose[i]([]byte(fmt.Sprintf("x%d", i))); err != nil {
				return
			}
			if l := p.Now() - start; l > worst {
				worst = l
			}
		})
	}
	if err := w.Run(); err != nil {
		return 0, err
	}
	return worst.DUnits(), nil
}
