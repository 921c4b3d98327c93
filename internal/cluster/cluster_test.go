package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// buildWorld brings up a Shards×N topology on the simulator: every node
// runs the full cluster stack with eqaso engines, serving threads
// spawned. Returns the world and the nodes.
func buildWorld(t *testing.T, shards, n, f int, seed int64) (*sim.World, []*Node) {
	t.Helper()
	m := ContiguousMap(shards, n, f, 0)
	total := m.NumNodes()
	health := NewHealth(total)
	w := sim.New(sim.Config{N: total, F: f, Seed: seed, Observer: health})
	nodes := make([]*Node, total)
	for id := 0; id < total; id++ {
		nd, err := NewNode(w.Runtime(id), Config{
			Map:    m,
			Health: health,
			NewEngine: func(shard int, r rt.Runtime) (rt.Handler, engine.Object) {
				e := engine.MustLookup("eqaso").New(r)
				return e, e
			},
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", id, err)
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
	return w, nodes
}

// closeAll shuts down every node so serving procs drain and exit.
func closeAll(w *sim.World, nodes []*Node, after rt.Ticks) {
	w.After(after, func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
}

// TestUpdateScanAcrossShards routes writes from one client node to every
// shard and reads them back through keyed scans.
func TestUpdateScanAcrossShards(t *testing.T) {
	w, nodes := buildWorld(t, 4, 3, 1, 42)
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	w.GoNode("writer", 0, func(p *sim.Proc) {
		nd := nodes[0]
		for i, k := range keys {
			if err := nd.Update(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("update %q: %v", k, err)
			}
		}
		for i, k := range keys {
			vals, err := nd.Scan(k)
			if err != nil {
				t.Errorf("scan %q: %v", k, err)
				continue
			}
			want := []byte(fmt.Sprintf("v%d", i))
			found := false
			for _, v := range vals {
				if bytes.Equal(v, want) {
					found = true
				}
			}
			if !found {
				t.Errorf("scan %q: value %q not in %q", k, want, vals)
			}
		}
	})
	closeAll(w, nodes, 400*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestGlobalScanClosed writes a cross-shard mark chain, then takes a
// closure-repaired GlobalScan and validates it.
func TestGlobalScanClosed(t *testing.T) {
	w, nodes := buildWorld(t, 3, 3, 1, 7)
	v := NewCutValidator(ValidatorOptions{CheckPlacement: true, RequireMarks: true})
	w.GoNode("writer", 1, func(p *sim.Proc) {
		mc := newMarkClient("w1", 99, 8)
		nd := nodes[1]
		for i := 0; i < 20; i++ {
			mc.seq++
			key := mc.key()
			mk := Mark{Writer: mc.writer, Seq: mc.seq, PrevKey: mc.lastKey, PrevSeq: mc.lastSeq}
			if err := nd.Update(key, mk.Encode()); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			mc.lastKey, mc.lastSeq = key, mc.seq
		}
		cut, err := nodes[1].GlobalScanClosed(v, 0)
		if err != nil {
			t.Errorf("GlobalScanClosed: %v", err)
			return
		}
		if vio := v.Validate(cut); len(vio) > 0 {
			t.Errorf("cut violations: %v", vio)
		}
		if cut.Skew() <= 0 {
			t.Errorf("cut skew = %d, want > 0", cut.Skew())
		}
		if got := cut.DumpString(); got != cut.DumpString() {
			t.Errorf("DumpString not deterministic")
		}
	})
	closeAll(w, nodes, 400*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestValidatorRejectsInjectedInconsistency corrupts a valid cut in
// several ways and checks the validator flags each one.
func TestValidatorRejectsInjectedInconsistency(t *testing.T) {
	m := ContiguousMap(2, 3, 1, 0)
	ring := m.Ring()
	// Find two keys on different shards.
	keyOn := func(shard int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("w0/k%d", i)
			if ring.ShardFor(k) == shard {
				return k
			}
		}
	}
	k0, k1 := keyOn(0), keyOn(1)
	seg := func(marks map[string]Mark) []byte {
		var recs []svc.Record
		for k, mk := range marks {
			recs = append(recs, svc.Record{K: k, V: mk.Encode()})
		}
		return svc.EncodeRecords(recs)
	}
	mk1 := Mark{Writer: "w0", Seq: 1}                          // first write, on k0 / shard 0
	mk2 := Mark{Writer: "w0", Seq: 2, PrevKey: k0, PrevSeq: 1} // second write, on k1 / shard 1
	valid := func() *Cut {
		return &Cut{
			Frontier: 100, Map: m, Rounds: 1,
			Shards: []ShardCut{
				{Shard: 0, ScanStart: 110, ScanEnd: 120, Segments: [][]byte{seg(map[string]Mark{k0: mk1}), nil, nil}, Rounds: 1},
				{Shard: 1, ScanStart: 112, ScanEnd: 125, Segments: [][]byte{seg(map[string]Mark{k1: mk2}), nil, nil}, Rounds: 1},
			},
		}
	}
	v := NewCutValidator(ValidatorOptions{CheckPlacement: true, RequireMarks: true})
	if vio := v.Validate(valid()); len(vio) != 0 {
		t.Fatalf("valid cut flagged: %v", vio)
	}

	// Missing predecessor: drop k0 from shard 0's cut.
	c := valid()
	c.Shards[0].Segments = [][]byte{nil, nil, nil}
	if vio := v.Validate(c); len(vio) == 0 {
		t.Errorf("missing predecessor not flagged")
	}
	if miss := v.MissingClosure(c); len(miss) != 1 || miss[0] != 0 {
		t.Errorf("MissingClosure = %v, want [0]", miss)
	}

	// Frontier violation: shard scan linearized before the frontier.
	c = valid()
	c.Shards[1].ScanStart = 90
	if vio := v.Validate(c); len(vio) == 0 {
		t.Errorf("pre-frontier scan not flagged")
	}

	// Cross-writer collision on one key.
	c = valid()
	alien := Mark{Writer: "intruder", Seq: 9}
	c.Shards[0].Segments[1] = seg(map[string]Mark{k0: alien})
	if vio := v.Validate(c); len(vio) == 0 {
		t.Errorf("cross-writer collision not flagged")
	}

	// Placement violation: k1 planted on shard 0.
	c = valid()
	c.Shards[0].Segments[2] = seg(map[string]Mark{k1: {Writer: "w1", Seq: 1}})
	if vio := v.Validate(c); len(vio) == 0 {
		t.Errorf("misplaced key not flagged")
	}
}

// TestShardMapVersionRace splits a 1-shard map into 2 shards while a
// client still holds v1: the client's stale write is rejected with the
// newer map piggybacked, adopted, and re-routed under v2.
func TestShardMapVersionRace(t *testing.T) {
	v1 := ShardMap{Version: 1, VNodes: DefaultVNodes, F: 1, Members: [][]int{{0, 1, 2}}}
	v2 := ShardMap{Version: 2, VNodes: DefaultVNodes, F: 1, Members: [][]int{{0, 1, 2}, {3, 4, 5}}}
	total := 6
	w := sim.New(sim.Config{N: total, F: 1, Seed: 11})
	nodes := make([]*Node, total)
	for id := 0; id < total; id++ {
		nd, err := NewNode(w.Runtime(id), Config{
			Map:       v1,
			Provision: []ShardMap{v2},
			NewEngine: func(shard int, r rt.Runtime) (rt.Handler, engine.Object) {
				e := engine.MustLookup("eqaso").New(r)
				return e, e
			},
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", id, err)
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

	// A key that moves to shard 1 under v2.
	r2 := v2.Ring()
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("moved/k%d", i)
		if r2.ShardFor(key) == 1 {
			break
		}
	}

	w.GoNode("client", 3, func(p *sim.Proc) {
		// Servers of shard 0 adopt the split; client node 3 still holds v1.
		for id := 0; id < 3; id++ {
			if ok, err := nodes[id].InstallMap(v2); err != nil || !ok {
				t.Errorf("InstallMap on %d: ok=%v err=%v", id, ok, err)
			}
		}
		if got := nodes[3].Map().Version; got != 1 {
			t.Fatalf("client map version = %d, want 1", got)
		}
		// The stale write routes to shard 0 (v1 has only shard 0), gets a
		// StaleMap rejection carrying v2, adopts it, and lands on shard 1
		// — which node 3 owns, so it commits through the local fast path.
		if err := nodes[3].Update(key, []byte("val")); err != nil {
			t.Fatalf("update: %v", err)
		}
		if got := nodes[3].Map().Version; got != 2 {
			t.Errorf("client map version after update = %d, want 2 (adopted from rejection)", got)
		}
		vals, err := nodes[3].Scan(key)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		found := false
		for _, v := range vals {
			if bytes.Equal(v, []byte("val")) {
				found = true
			}
		}
		if !found {
			t.Errorf("value not found on shard 1 after re-route: %q", vals)
		}
	})
	closeAll(w, nodes, 400*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}
