package svc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
)

// TestServiceOverChanTransport: the service layer runs over real
// goroutines and channels with genuine parallelism — concurrent clients
// per node, wall-clock delays — and histories stay consistent (run with
// -race in CI). The sim tests prove the batching logic; this proves the
// same code is thread-safe on a real runtime.
func TestServiceOverChanTransport(t *testing.T) {
	for _, alg := range []string{"eqaso", "sso"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			const n, f, clients, each = 4, 1, 4, 3
			net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 17})
			defer net.Close()
			services := make([]*svc.Service, n)
			rts := make([]rt.Runtime, n)
			var workers sync.WaitGroup
			for i := 0; i < n; i++ {
				rts[i] = net.Runtime(i)
				nd := engine.MustLookup(alg).New(rts[i])
				net.SetHandler(i, nd)
				services[i] = svc.New(rts[i], nd, svc.Options{Mode: svc.ModeFor(alg)})
				workers.Add(1)
				go func(s *svc.Service) {
					defer workers.Done()
					if err := s.Serve(); err != nil {
						t.Errorf("Serve: %v", err)
					}
				}(services[i])
			}
			// The recorder orders same-node updates by Begin call order, so
			// Begin and service admission must happen atomically per node
			// (otherwise goroutine preemption between them lets the batch
			// commit values in a different order than recorded). The async
			// API splits admission from completion exactly for this.
			rec := history.NewRecorder(n)
			admit := make([]sync.Mutex, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				for c := 0; c < clients; c++ {
					i, c := i, c
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 1; k <= each; k++ {
							v := fmt.Sprintf("v%d.%d-%d", i, c, k)
							admit[i].Lock()
							p := rec.BeginUpdate(i, v, rts[i].Now())
							tk, err := services[i].UpdateAsync([]byte(v))
							admit[i].Unlock()
							if err == nil {
								err = tk.Wait()
							}
							if err != nil {
								t.Errorf("update: %v", err)
								return
							}
							p.End(rts[i].Now())
							admit[i].Lock()
							ps := rec.BeginScan(i, rts[i].Now())
							tk, err = services[i].ScanAsync()
							admit[i].Unlock()
							if err == nil {
								err = tk.Wait()
							}
							if err != nil {
								t.Errorf("scan: %v", err)
								return
							}
							ps.EndScan(harness.SnapStrings(tk.Snap()), rts[i].Now())
						}
					}()
				}
			}
			wg.Wait()
			for _, s := range services {
				s.Close()
			}
			workers.Wait()
			h := rec.History()
			if alg == "sso" {
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
