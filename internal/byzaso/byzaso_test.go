package byzaso_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mpsnap/internal/byzaso"
	"mpsnap/internal/core"
	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/rbc"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

func build(cfg sim.Config) *harness.Cluster {
	return harness.Build(cfg, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := byzaso.New(r)
		return nd, nd
	})
}

func TestFailureFreeLinearizable(t *testing.T) {
	n, f := 7, 2
	c := build(sim.Config{N: n, F: f, Seed: 1})
	for i := 0; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 3; k++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if _, err := o.Scan(); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureFreeConstantTime(t *testing.T) {
	// With no Byzantine nodes the algorithm should complete operations
	// in constant time (independent of n), like the crash version.
	for _, n := range []int{4, 7, 13} {
		f := (n - 1) / 3
		c := build(sim.Config{N: n, F: f, Seed: 2, Delay: sim.Constant{Ticks: rt.TicksPerD}})
		for i := 0; i < n; i++ {
			c.Client(i, func(o *harness.OpRunner) {
				if _, err := o.Update(); err != nil {
					t.Errorf("update: %v", err)
				}
				if _, err := o.Scan(); err != nil {
					t.Errorf("scan: %v", err)
				}
			})
		}
		h, err := c.MustLinearizable()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		st := harness.Latencies(h)
		const maxD = 30.0
		if st.WorstUpdate > maxD || st.WorstScan > maxD {
			t.Errorf("n=%d: worst update %.1fD scan %.1fD exceed constant budget", n, st.WorstUpdate, st.WorstScan)
		}
	}
}

func TestSilentByzantine(t *testing.T) {
	// f nodes silent from the start (the crash-like Byzantine strategy).
	n, f := 7, 2
	c := build(sim.Config{N: n, F: f, Seed: 3})
	for i := 0; i < f; i++ {
		c.W.CrashAt(i, 0) // silent = crashed, from the harness viewpoint
	}
	for i := f; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
			}
			if _, err := o.Scan(); err != nil {
				t.Errorf("scan: %v", err)
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

// byzBehavior wraps the honest protocol but injects malicious replies.
type byzBehavior struct {
	inner *byzaso.Node
	r     rt.Runtime
	mode  string
	steps int
}

func (b *byzBehavior) HandleMessage(src int, m rt.Message) {
	switch b.mode {
	case "readack-liar":
		if q, ok := m.(byzaso.MsgReadTag); ok {
			b.r.Send(src, byzaso.MsgReadAck{ReqID: q.ReqID, Tag: 1 << 40})
			return
		}
	case "have-spammer":
		// Participate normally but also spray HAVEs for values that do
		// not exist.
		if b.steps < 50 {
			b.steps++
			b.r.Broadcast(byzaso.MsgHave{TS: core.Timestamp{Tag: core.Tag(1000 + b.steps), Writer: (src + 1) % b.r.N()}})
		}
	}
	b.inner.HandleMessage(src, m)
}

func runWithByz(t *testing.T, mode string, seed int64) {
	t.Helper()
	n, f := 7, 2
	c := harness.Build(sim.Config{N: n, F: f, Seed: seed}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := byzaso.New(r)
		if r.ID() < f {
			return &byzBehavior{inner: nd, r: r, mode: mode}, nd
		}
		return nd, nd
	})
	for i := f; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 2; k++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if _, err := o.Scan(); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatalf("mode=%s seed=%d: %v", mode, seed, err)
	}
}

func TestReadAckLiars(t *testing.T) {
	// Byzantine responders report absurd maxTags; the (f+1)-th largest
	// selection must keep scans both live and safe.
	for seed := int64(0); seed < 5; seed++ {
		runWithByz(t, "readack-liar", seed)
	}
}

func TestHaveSpammers(t *testing.T) {
	// HAVE announcements for values that are never RBC-delivered must
	// neither block honest operations nor leak into views.
	for seed := int64(0); seed < 5; seed++ {
		runWithByz(t, "have-spammer", seed)
	}
}

func TestTagRatchetBounded(t *testing.T) {
	// Byzantine nodes ratchet tags upward; corroboration limits them to
	// one step per round trip, and honest operations keep completing.
	n, f := 7, 2
	c := harness.Build(sim.Config{N: n, F: f, Seed: 11}, func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := byzaso.New(r)
		return nd, nd
	})
	// Drive the ratchet from a scenario proc using raw RBC instances on
	// the Byzantine nodes' runtimes (they share the nodes' channels).
	for b := 0; b < f; b++ {
		b := b
		layer := rbc.New(c.W.Runtime(b), nil)
		c.W.Go(fmt.Sprintf("ratchet-%d", b), func(p *sim.Proc) {
			for step := 1; step <= 15; step++ {
				// Announce an ever-growing tag (encoded like the
				// protocol's tag payloads).
				layer.Broadcast(encodeTagForTest(core.Tag(step)))
				if err := p.Sleep(500); err != nil {
					return
				}
			}
		})
	}
	for i := f; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 2; k++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if _, err := o.Scan(); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

// encodeTagForTest mirrors the package's tag payload encoding.
func encodeTagForTest(tag core.Tag) []byte {
	buf := make([]byte, 9)
	buf[0] = 2
	for i := 0; i < 8; i++ {
		buf[8-i] = byte(tag >> (8 * i))
	}
	return buf
}

func TestForgedWriterRejected(t *testing.T) {
	// A Byzantine node RBC-broadcasts a value claiming an honest writer.
	// It must never appear in any scan (the checker would flag a value no
	// recorded update wrote).
	n, f := 7, 2
	c := build(sim.Config{N: n, F: f, Seed: 13})
	forger := rbc.New(c.W.Runtime(0), nil)
	c.W.Go("forger", func(p *sim.Proc) {
		// Forge a value pretending to be node 3 (payload format of the
		// protocol: kind=1, tag, writer, payload).
		buf := make([]byte, 13+4)
		buf[0] = 1
		buf[8] = 1  // tag = 1
		buf[12] = 3 // writer = 3 ≠ origin 0
		copy(buf[13:], "evil")
		forger.Broadcast(buf)
	})
	for i := f; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
			}
			snap, err := o.Scan()
			if err != nil {
				t.Errorf("scan: %v", err)
				return
			}
			for seg, v := range snap {
				if v == "evil" {
					t.Errorf("forged value leaked into segment %d", seg)
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

func TestLinearizableUnderMixedByzantine(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 7 + int(seed%3)*3
		f := (n - 1) / 3
		c := harness.Build(sim.Config{N: n, F: f, Seed: seed}, func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := byzaso.New(r)
			if r.ID() < f {
				mode := "readack-liar"
				if r.ID()%2 == 1 {
					mode = "have-spammer"
				}
				return &byzBehavior{inner: nd, r: r, mode: mode}, nd
			}
			return nd, nd
		})
		for i := f; i < n; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				rng := rand.New(rand.NewSource(seed*91 + int64(i)))
				for k := 0; k < 3; k++ {
					var err error
					if rng.Intn(2) == 0 {
						_, err = o.Update()
					} else {
						_, err = o.Scan()
					}
					if err != nil {
						return
					}
					_ = o.P.Sleep(rt.Ticks(rng.Intn(3000)))
				}
			})
		}
		_ = rng
		if _, err := c.MustLinearizable(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
