package svc_test

import (
	"fmt"
	"testing"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// buildStores wires one Store per node over per-node muxes on a fresh
// world, spawning every shard worker. Returns the world and the stores.
func buildStores(n, f int, seed int64, shards int) (*sim.World, []*svc.Store) {
	w := sim.New(sim.Config{N: n, F: f, Seed: seed})
	stores := make([]*svc.Store, n)
	for i := 0; i < n; i++ {
		m := mux.New(w.Runtime(i))
		w.SetHandler(i, m)
		st, err := svc.NewStore(m, svc.StoreConfig{
			Shards: shards,
			NewObject: func(r rt.Runtime) (rt.Handler, engine.Object) {
				nd := engine.MustLookup("eqaso").New(r)
				return nd, nd
			},
		})
		if err != nil {
			panic(err)
		}
		stores[i] = st
		for j, s := range st.Services() {
			s := s
			w.GoNode(fmt.Sprintf("store-%d/%d", i, j), i, func(p *sim.Proc) { _ = s.Serve() })
		}
	}
	return w, stores
}

// TestStoreEndToEnd: keys written by different nodes are visible
// cluster-wide, values written in earlier batches survive later batches
// to the same shard (cumulative segments), and overwrites win.
func TestStoreEndToEnd(t *testing.T) {
	const n, f, shards = 3, 1, 2
	w, stores := buildStores(n, f, 31, shards)
	writersDone := 0
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 2; i++ {
		i := i
		w.GoNode(fmt.Sprintf("writer-%d", i), i, func(p *sim.Proc) {
			defer func() { writersDone++ }()
			// Sequential writes: every key lands in its own batch, so a
			// later batch to the same shard must not evict earlier keys.
			for _, k := range keys {
				if err := stores[i].Update(k, []byte(fmt.Sprintf("%s@%d", k, i))); err != nil {
					t.Errorf("update %s: %v", k, err)
					return
				}
			}
			// Overwrite one key; the new value must win.
			if err := stores[i].Update("alpha", []byte(fmt.Sprintf("alpha2@%d", i))); err != nil {
				t.Errorf("overwrite: %v", err)
			}
		})
	}
	w.GoNode("reader", 2, func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("writers done", func() bool { return writersDone == 2 })
		for _, k := range keys {
			vals, err := stores[2].Scan(k)
			if err != nil {
				t.Errorf("scan %s: %v", k, err)
				return
			}
			for i := 0; i < 2; i++ {
				want := fmt.Sprintf("%s@%d", k, i)
				if k == "alpha" {
					want = fmt.Sprintf("alpha2@%d", i)
				}
				if string(vals[i]) != want {
					t.Errorf("scan(%s)[%d] = %q, want %q", k, i, vals[i], want)
				}
			}
			if vals[2] != nil {
				t.Errorf("scan(%s)[2] = %q, want nil (node 2 never wrote)", k, vals[2])
			}
		}
		for _, st := range stores {
			st.Close()
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreShardRouting: the key hash is deterministic, identical across
// stores, and spreads keys over every shard.
func TestStoreShardRouting(t *testing.T) {
	w, stores := buildStores(2, 0, 32, 4)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%d", i)
		sh := stores[0].ShardFor(k)
		if sh < 0 || sh >= stores[0].Shards() {
			t.Fatalf("ShardFor(%s) = %d out of range", k, sh)
		}
		if got := stores[1].ShardFor(k); got != sh {
			t.Fatalf("ShardFor(%s) differs across nodes: %d vs %d", k, sh, got)
		}
		seen[sh] = true
	}
	if len(seen) != 4 {
		t.Errorf("64 keys reached only shards %v, want all 4", seen)
	}
	for _, st := range stores {
		st.Close()
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConfigErrors: invalid configurations and duplicate channel
// prefixes are reported, not silently absorbed.
func TestStoreConfigErrors(t *testing.T) {
	w := sim.New(sim.Config{N: 1, F: 0, Seed: 33})
	m := mux.New(w.Runtime(0))
	mk := func(r rt.Runtime) (rt.Handler, engine.Object) {
		nd := engine.MustLookup("eqaso").New(r)
		return nd, nd
	}
	if _, err := svc.NewStore(m, svc.StoreConfig{}); err == nil {
		t.Error("missing NewObject must error")
	}
	if _, err := svc.NewStore(m, svc.StoreConfig{
		NewObject: mk,
		Options:   svc.Options{Coalesce: func(p [][]byte) []byte { return nil }},
	}); err == nil {
		t.Error("reserved Coalesce must error")
	}
	if _, err := svc.NewStore(m, svc.StoreConfig{NewObject: mk}); err != nil {
		t.Fatalf("first store: %v", err)
	}
	// Same prefix again: the mux channel collision must surface as an
	// error (through BindErr), not a panic or a silent overwrite.
	if _, err := svc.NewStore(m, svc.StoreConfig{NewObject: mk}); err == nil {
		t.Error("duplicate prefix must error")
	}
	if _, err := svc.NewStore(m, svc.StoreConfig{NewObject: mk, Prefix: "other"}); err != nil {
		t.Errorf("distinct prefix must succeed: %v", err)
	}
}

// TestMergeKeysDeterministic: MergeKeys yields the sorted, deduplicated
// union regardless of segment order or per-segment key order — the
// property cut dumps rely on for byte-identical output.
func TestMergeKeysDeterministic(t *testing.T) {
	seg := func(keys ...string) []byte {
		recs := make([]svc.Record, len(keys))
		for i, k := range keys {
			recs[i] = svc.Record{K: k, V: []byte("v-" + k)}
		}
		return svc.EncodeRecords(recs)
	}
	// Same key sets, different write orders and segment orders.
	a := [][]byte{seg("zeta", "alpha", "mu"), seg("beta", "alpha"), nil}
	b := [][]byte{nil, seg("alpha", "beta"), seg("mu", "zeta", "alpha")}
	want := []string{"alpha", "beta", "mu", "zeta"}
	for _, segs := range [][][]byte{a, b} {
		got := svc.MergeKeys(segs)
		if len(got) != len(want) {
			t.Fatalf("MergeKeys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MergeKeys = %v, want %v", got, want)
			}
		}
	}
	if got := svc.MergeKeys(nil); len(got) != 0 {
		t.Errorf("MergeKeys(nil) = %v, want empty", got)
	}
}

// TestRecordsRoundTrip: the exported record codec round-trips, including
// the nil-vs-empty value edge the wire layer flattens.
func TestRecordsRoundTrip(t *testing.T) {
	in := []svc.Record{{K: "a", V: []byte("x")}, {K: "b", V: nil}, {K: "", V: []byte{}}}
	out := svc.DecodeRecords(svc.EncodeRecords(in))
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].K != in[i].K || string(out[i].V) != string(in[i].V) {
			t.Errorf("record %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if got := svc.DecodeRecords([]byte{0xff, 0x01}); got != nil {
		t.Errorf("corrupt payload decoded to %v, want nil", got)
	}
}

// TestStoreKeysAndScanAll: Keys and ScanAll enumerate the full keyed
// contents across shards in sorted order, with per-node value vectors
// from the owning shard's snapshot; order is stable across repeated calls.
func TestStoreKeysAndScanAll(t *testing.T) {
	const n, f, shards = 3, 1, 4
	w, stores := buildStores(n, f, 34, shards)
	keys := []string{"zeta", "alpha", "mu", "beta", "omega", "kappa"}
	writersDone := 0
	for i := 0; i < 2; i++ {
		i := i
		w.GoNode(fmt.Sprintf("writer-%d", i), i, func(p *sim.Proc) {
			defer func() { writersDone++ }()
			// Writers insert in opposite orders so first-write segment
			// order differs between nodes; enumeration must not care.
			ks := keys
			if i == 1 {
				ks = make([]string, len(keys))
				for j, k := range keys {
					ks[len(keys)-1-j] = k
				}
			}
			for _, k := range ks {
				if err := stores[i].Update(k, []byte(fmt.Sprintf("%s@%d", k, i))); err != nil {
					t.Errorf("update %s: %v", k, err)
					return
				}
			}
		})
	}
	w.GoNode("reader", 2, func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("writers done", func() bool { return writersDone == 2 })
		got, err := stores[2].Keys()
		if err != nil {
			t.Errorf("Keys: %v", err)
			return
		}
		want := []string{"alpha", "beta", "kappa", "mu", "omega", "zeta"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("Keys = %v, want %v", got, want)
		}
		all, err := stores[2].ScanAll()
		if err != nil {
			t.Errorf("ScanAll: %v", err)
			return
		}
		if len(all) != len(want) {
			t.Fatalf("ScanAll returned %d keys, want %d", len(all), len(want))
		}
		for i, kv := range all {
			if kv.Key != want[i] {
				t.Errorf("ScanAll[%d].Key = %q, want %q (sorted)", i, kv.Key, want[i])
			}
			for node := 0; node < 2; node++ {
				wantV := fmt.Sprintf("%s@%d", kv.Key, node)
				if string(kv.Vals[node]) != wantV {
					t.Errorf("ScanAll[%s].Vals[%d] = %q, want %q", kv.Key, node, kv.Vals[node], wantV)
				}
			}
			if kv.Vals[2] != nil {
				t.Errorf("ScanAll[%s].Vals[2] = %q, want nil", kv.Key, kv.Vals[2])
			}
		}
		again, err := stores[2].ScanAll()
		if err != nil {
			t.Errorf("ScanAll again: %v", err)
			return
		}
		if fmt.Sprint(all) != fmt.Sprint(again) {
			t.Errorf("ScanAll not order-stable across calls")
		}
		for _, st := range stores {
			st.Close()
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}
