package transport_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/baseline/delporte"
	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/baseline/storecollect"
	"mpsnap/internal/byzaso"
	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sso"
	"mpsnap/internal/transport"
)

// TestAllAlgorithmsOverChanTransport: the same algorithms that pass the
// simulator conformance battery run over real goroutines, channels, and
// wall-clock delays — with genuine parallelism — and their histories stay
// consistent. This is the strongest evidence the rt abstraction didn't
// hide real concurrency bugs (run with -race in CI).
func TestAllAlgorithmsOverChanTransport(t *testing.T) {
	cases := []struct {
		name       string
		minNOver3F bool
		sso        bool
		mk         func(r rt.Runtime) (rt.Handler, engine.Object)
	}{
		{name: "eqaso", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := eqaso.New(r)
			return nd, nd
		}},
		{name: "sso", sso: true, mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := sso.New(r)
			return nd, nd
		}},
		{name: "byzaso", minNOver3F: true, mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := byzaso.New(r)
			return nd, nd
		}},
		{name: "delporte", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := delporte.New(r)
			return nd, nd
		}},
		{name: "storecollect", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := storecollect.New(r)
			return nd, nd
		}},
		{name: "laaso", mk: func(r rt.Runtime) (rt.Handler, engine.Object) {
			nd := laaso.New(r)
			return nd, nd
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n, f := 4, 1
			if tc.minNOver3F {
				n, f = 4, 1 // 4 > 3·1
			}
			// CopyThrough: every message of every algorithm crosses the
			// internal/wire codec, so this battery also proves total codec
			// coverage with canonical (re-encodable) encodings.
			net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 7, CopyThrough: true})
			defer net.Close()
			objs := make([]engine.Object, n)
			rts := make([]rt.Runtime, n)
			for i := 0; i < n; i++ {
				rts[i] = net.Runtime(i)
				h, obj := tc.mk(rts[i])
				net.SetHandler(i, h)
				objs[i] = obj
			}
			rec := history.NewRecorder(n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 1; k <= 3; k++ {
						v := fmt.Sprintf("v%d-%d", i, k)
						p := rec.BeginUpdate(i, v, rts[i].Now())
						if err := objs[i].Update([]byte(v)); err != nil {
							t.Errorf("update: %v", err)
							return
						}
						p.End(rts[i].Now())
						ps := rec.BeginScan(i, rts[i].Now())
						snap, err := objs[i].Scan()
						if err != nil {
							t.Errorf("scan: %v", err)
							return
						}
						ps.EndScan(harness.SnapStrings(snap), rts[i].Now())
					}
				}()
			}
			wg.Wait()
			h := rec.History()
			if tc.sso {
				if rep := h.CheckSequentiallyConsistent(); !rep.OK {
					t.Fatalf("not sequentially consistent: %v", rep.Violations[0])
				}
				return
			}
			if rep := h.CheckLinearizable(); !rep.OK {
				t.Fatalf("not linearizable: %v", rep.Violations[0])
			}
		})
	}
}
