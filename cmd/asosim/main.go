// Command asosim runs one simulated snapshot-object workload and reports
// the checked history.
//
// Usage:
//
//	asosim [flags]
//	asosim -scenario figure2
//
// Flags select the algorithm, cluster size, workload, delay model, and
// crash schedule; the tool prints per-operation latencies and the
// (A1)-(A4) checker verdict (or the sequential-consistency verdict for
// SSO algorithms).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"mpsnap"
	"mpsnap/internal/engine"
	"mpsnap/internal/history"
	"mpsnap/internal/la"
	"mpsnap/internal/sim"
)

func main() {
	var (
		alg       = flag.String("alg", "eqaso", "algorithm: "+strings.Join(engine.Names(), "|"))
		n         = flag.Int("n", 5, "number of nodes")
		f         = flag.Int("f", 2, "resilience bound")
		ops       = flag.Int("ops", 4, "operations per node")
		scanRatio = flag.Float64("scan-ratio", 0.5, "fraction of scans in the workload")
		seed      = flag.Int64("seed", 1, "simulation seed")
		crashes   = flag.Int("crashes", 0, "number of nodes to crash at random times")
		constant  = flag.Bool("constant-delay", false, "every message takes exactly D (default: uniform)")
		verbose   = flag.Bool("v", false, "print every operation")
		gantt     = flag.Bool("gantt", false, "draw the history as an ASCII space-time diagram")
		trace     = flag.Bool("trace", false, "print every message send/delivery and crash")
		dump      = flag.String("dump", "", "write the recorded history as JSON to this file")
		check     = flag.String("check", "", "skip simulation: load a history JSON file and check it")
		scenario  = flag.String("scenario", "", "run a canned scenario instead: figure2")
	)
	flag.Parse()

	if *scenario != "" {
		runScenario(*scenario)
		return
	}
	if *check != "" {
		checkFile(*check, *gantt)
		return
	}

	cfg := mpsnap.Config{N: *n, F: *f, Algorithm: mpsnap.Algorithm(*alg), Seed: *seed}
	if *constant {
		cfg.Delay = mpsnap.DelayConstant
	}
	rng := rand.New(rand.NewSource(*seed))
	for k := 0; k < *crashes; k++ {
		cfg.Crashes = append(cfg.Crashes, mpsnap.CrashSpec{
			Node: k,
			At:   mpsnap.Ticks(rng.Int63n(int64(20 * mpsnap.D))),
		})
	}
	cluster, err := mpsnap.NewSimCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *trace {
		cluster.Trace(func(line string) { fmt.Println(line) })
	}
	for i := 0; i < *n; i++ {
		i := i
		cluster.Client(i, func(c *mpsnap.Client) {
			rng := rand.New(rand.NewSource(*seed*1009 + int64(i)))
			for k := 1; k <= *ops; k++ {
				var err error
				if rng.Float64() < *scanRatio {
					start := c.Now()
					var snap [][]byte
					snap, err = c.Scan()
					if err == nil && *verbose {
						fmt.Printf("t=%7.2fD node %d SCAN -> %s (%.2fD)\n",
							float64(c.Now())/float64(mpsnap.D), i, renderSnap(snap),
							float64(c.Now()-start)/float64(mpsnap.D))
					}
				} else {
					v := fmt.Sprintf("v%d-%d", i, k)
					start := c.Now()
					err = c.Update([]byte(v))
					if err == nil && *verbose {
						fmt.Printf("t=%7.2fD node %d UPDATE(%s) (%.2fD)\n",
							float64(c.Now())/float64(mpsnap.D), i, v,
							float64(c.Now()-start)/float64(mpsnap.D))
					}
				}
				if err != nil {
					if *verbose {
						fmt.Printf("node %d stopped: %v\n", i, err)
					}
					return
				}
				_ = c.Sleep(mpsnap.Ticks(rng.Int63n(int64(3 * mpsnap.D))))
			}
		})
	}
	if err := cluster.Run(); err != nil {
		log.Fatalf("simulation: %v", err)
	}
	if *gantt {
		fmt.Println(cluster.RenderHistory(110))
	}
	if *dump != "" {
		fd, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.DumpHistory(fd); err != nil {
			log.Fatal(err)
		}
		if err := fd.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("history written to %s (re-check with: asosim -check %s)\n", *dump, *dump)
	}
	st := cluster.Stats()
	fmt.Printf("algorithm=%s n=%d f=%d crashes=%d seed=%d\n", *alg, *n, *f, *crashes, *seed)
	fmt.Printf("  %d operations, %d messages, %.1fD virtual time\n", st.Operations, st.Messages, st.VirtualTime)
	fmt.Printf("  latency: update worst %.2fD mean %.2fD | scan worst %.2fD mean %.2fD\n",
		st.WorstUpdateD, st.MeanUpdateD, st.WorstScanD, st.MeanScanD)
	if err := cluster.Check(); err != nil {
		fmt.Printf("  consistency: FAILED — %v\n", err)
		os.Exit(1)
	}
	kind := "linearizable (A1-A4)"
	if !mpsnap.Algorithm(*alg).Atomic() {
		kind = "sequentially consistent"
	}
	fmt.Printf("  consistency: %s ✓\n", kind)
}

func renderSnap(snap [][]byte) string {
	out := "["
	for i, s := range snap {
		if i > 0 {
			out += " "
		}
		if s == nil {
			out += "⊥"
		} else {
			out += string(s)
		}
	}
	return out + "]"
}

// checkFile loads a history JSON file and reports both consistency
// verdicts (useful for histories recorded from real deployments).
func checkFile(path string, gantt bool) {
	fd, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer fd.Close()
	h, err := history.LoadJSON(fd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d operations\n", path, h.N, len(h.Ops))
	if gantt {
		fmt.Println(history.RenderGantt(h, 110))
	}
	lin := h.CheckLinearizable()
	fmt.Printf("  linearizable (A1-A4):     %s\n", verdict(lin.OK, lin.Violations))
	sc := h.CheckSequentiallyConsistent()
	fmt.Printf("  sequentially consistent:  %s\n", verdict(sc.OK, sc.Violations))
	if !lin.OK && !sc.OK {
		os.Exit(1)
	}
}

func verdict(ok bool, violations []string) string {
	if ok {
		return "✓"
	}
	return fmt.Sprintf("✗ (%d violations; first: %s)", len(violations), violations[0])
}

func runScenario(name string) {
	switch name {
	case "figure2":
		runFigure2()
	default:
		log.Fatalf("unknown scenario %q (available: figure2)", name)
	}
}

// runFigure2 replays the paper's Figure 2 one-shot execution (also
// available as examples/figure2).
func runFigure2() {
	delays := sim.SlowLinks{
		Slow:      map[[2]int]bool{{0, 1}: true, {2, 1}: true, {1, 0}: true},
		SlowDelay: 800,
		FastDelay: 50,
	}
	w := sim.New(sim.Config{N: 3, F: 1, Seed: 1, Delay: delays})
	objs := make([]*la.OneShot, 3)
	for i := 0; i < 3; i++ {
		objs[i] = la.NewOneShot(w.Runtime(i))
		w.SetHandler(i, objs[i])
	}
	scan := func(p *sim.Proc, node int, opname string) {
		inv := p.Now()
		snap, err := objs[node].Scan()
		if err != nil {
			log.Fatalf("%s: %v", opname, err)
		}
		fmt.Printf("%s: SCAN by node %d  [t=%4d..%4d] -> %s (waited %d ticks)\n",
			opname, node+1, inv, p.Now(), renderSnap(snap), p.Now()-inv)
	}
	update := func(p *sim.Proc, node int, val, opname string) {
		inv := p.Now()
		if err := objs[node].Update([]byte(val)); err != nil {
			log.Fatalf("%s: %v", opname, err)
		}
		fmt.Printf("%s: UPDATE(%s) by node %d  [t=%4d..%4d]\n", opname, val, node+1, inv, p.Now())
	}
	w.GoNode("node1", 0, func(p *sim.Proc) {
		update(p, 0, "u", "op2")
		_ = p.Sleep(150 - p.Now())
		scan(p, 0, "op4")
	})
	w.GoNode("node2", 1, func(p *sim.Proc) {
		_ = p.Sleep(200)
		update(p, 1, "w", "op5")
	})
	w.GoNode("node3", 2, func(p *sim.Proc) {
		scan(p, 2, "op1")
		update(p, 2, "v", "op3")
		_ = p.Sleep(260 - p.Now())
		scan(p, 2, "op6")
	})
	if err := w.Run(); err != nil {
		log.Fatal(err)
	}
}
