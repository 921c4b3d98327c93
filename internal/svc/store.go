// The keyed Store: sharding many keys over independent snapshot objects.
//
// A snapshot object gives every node one segment. A Store multiplies that:
// it runs Shards independent object instances over one cluster (via
// internal/mux channel isolation) and hashes each key to a shard. Each
// shard's segment holds a key→value map for the keys this node wrote to
// that shard, committed through the shard's Service with a map-merging
// Coalesce — so one protocol UPDATE commits every key written in a batch,
// not just the last one.
//
// The segment payload is encoded deterministically (records sorted by
// key): simulator runs must stay byte-identical per seed, which rules out
// Go's randomized map iteration reaching the wire.
package svc

import (
	"fmt"
	"hash/fnv"
	"sort"

	"mpsnap/internal/engine"
	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// DefaultShards is the shard count when StoreConfig.Shards is 0.
const DefaultShards = 4

// StoreConfig parameterizes one node's Store.
type StoreConfig struct {
	// Shards is the number of independent object instances (default
	// DefaultShards). Must match on every node.
	Shards int
	// Prefix namespaces the mux channels ("Prefix/0" … "Prefix/k-1";
	// default "store").
	Prefix string
	// Options configures each shard's Service. Options.Coalesce is
	// reserved by the Store (it installs the map-merging coalescer) and
	// must be nil.
	Options Options
	// NewObject builds one shard's protocol instance on a mux
	// sub-runtime, returning its message handler and client face. The
	// same constructor must be used on every node.
	NewObject func(r rt.Runtime) (rt.Handler, engine.Object)
}

// shard is one object instance plus its service front and this node's
// cumulative key map for the shard (worker-thread-only state).
type shard struct {
	svc   *Service
	cum   map[string][]byte
	order []string // first-write key order, for deterministic encoding
}

// Store is one node's keyed, sharded snapshot store.
type Store struct {
	n      int
	shards []*shard
}

// Record is one key write inside a shard segment. The segment payload
// format (EncodeRecords/DecodeRecords) is shared with the cluster routing
// layer, which ships the same records across shard clusters.
type Record struct {
	K string
	V []byte
}

// record is the historical internal alias for Record.
type record = Record

// NewStore builds the store's shards on m, binding channel
// "Prefix/<shard>" for each. Call Serve on every shard service (see
// Services) from dedicated threads, then Update/Scan freely.
func NewStore(m *mux.Mux, cfg StoreConfig) (*Store, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "store"
	}
	if cfg.Options.Coalesce != nil {
		return nil, fmt.Errorf("svc: StoreConfig.Options.Coalesce is reserved by the Store")
	}
	if cfg.NewObject == nil {
		return nil, fmt.Errorf("svc: StoreConfig.NewObject is required")
	}
	st := &Store{}
	for i := 0; i < cfg.Shards; i++ {
		name := fmt.Sprintf("%s/%d", cfg.Prefix, i)
		r := m.Channel(name)
		st.n = r.N()
		h, obj := cfg.NewObject(r)
		if err := m.BindErr(name, h); err != nil {
			return nil, err
		}
		sh := &shard{}
		opts := cfg.Options
		opts.Coalesce = sh.merge
		sh.svc = New(r, obj, opts)
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// merge folds a batch of key writes into the shard's cumulative key map
// and returns the full map as the committed segment payload. The map must
// be cumulative — a snapshot only keeps each writer's latest segment, so a
// key written in an earlier batch survives only by being re-committed here.
// Only the shard's worker thread calls merge, so the state needs no lock.
func (sh *shard) merge(payloads [][]byte) []byte {
	for _, p := range payloads {
		for _, rec := range decodeRecords(p) {
			if _, seen := sh.cum[rec.K]; !seen {
				sh.order = append(sh.order, rec.K)
			}
			if sh.cum == nil {
				sh.cum = make(map[string][]byte)
			}
			sh.cum[rec.K] = rec.V
		}
	}
	recs := make([]record, 0, len(sh.order))
	for _, k := range sh.order {
		recs = append(recs, record{K: k, V: sh.cum[k]})
	}
	return encodeRecords(recs)
}

// EncodeRecords serializes a record list deterministically (wire records
// in the given order; callers pass a deterministic order).
func EncodeRecords(recs []Record) []byte { return encodeRecords(recs) }

// DecodeRecords parses a segment payload; a corrupt payload (impossible
// through the Store API) is surfaced as an empty list.
func DecodeRecords(p []byte) []Record { return decodeRecords(p) }

// encodeRecords serializes a record list deterministically (wire records
// in the given order; callers pass a deterministic order).
func encodeRecords(recs []record) []byte {
	var b wire.Buffer
	b.PutUvarint(uint64(len(recs)))
	for _, rec := range recs {
		b.PutString(rec.K)
		b.PutBytes(rec.V)
	}
	return b.Bytes()
}

// decodeRecords parses a segment payload; a corrupt payload (impossible
// through the Store API) is surfaced as an empty list.
func decodeRecords(p []byte) []record {
	if len(p) == 0 {
		return nil
	}
	d := wire.NewDecoder(p)
	n := d.Count(2)
	recs := make([]record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, record{K: d.String(), V: d.Bytes()})
	}
	if d.Err() != nil {
		return nil
	}
	return recs
}

// ShardFor returns the shard index a key hashes to (fnv-1a, identical on
// every node).
func (s *Store) ShardFor(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Services returns the per-shard services, in shard order. The caller
// must run each one's Serve on a dedicated thread.
func (s *Store) Services() []*Service {
	out := make([]*Service, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.svc
	}
	return out
}

// Close stops admission on every shard (see Service.Close).
func (s *Store) Close() {
	for _, sh := range s.shards {
		sh.svc.Close()
	}
}

// Update writes key=val to this node's segment of the key's shard,
// blocking until the batch containing it commits.
func (s *Store) Update(key string, val []byte) error {
	payload := encodeRecords([]record{{K: key, V: val}})
	return s.shards[s.ShardFor(key)].svc.Update(payload)
}

// MergeKeys deterministically merges the key sets of several segment
// payloads: the union of every segment's record keys, sorted and
// deduplicated. Segments carry keys in each writer's first-write order, so
// a naive concatenation would depend on which writer committed first;
// sorting makes cross-segment enumeration order-stable across runs —
// cluster.GlobalScan relies on this for byte-identical cut dumps.
func MergeKeys(segments [][]byte) []string {
	var keys []string
	seen := make(map[string]bool)
	for _, seg := range segments {
		for _, rec := range decodeRecords(seg) {
			if !seen[rec.K] {
				seen[rec.K] = true
				keys = append(keys, rec.K)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// Keys snapshots every shard (one linearizable snapshot per shard) and
// returns all keys any node has ever written, in deterministic sorted
// order. Note the per-shard snapshots are taken independently: the key
// *set* is a union of per-shard linearizable views, not one atomic
// multi-shard cut (cluster.GlobalScan is the coordinated version).
func (s *Store) Keys() ([]string, error) {
	var all [][]byte
	for _, sh := range s.shards {
		snap, err := sh.svc.Scan()
		if err != nil {
			return nil, err
		}
		all = append(all, snap...)
	}
	return MergeKeys(all), nil
}

// KeyVals is one key's per-node value vector in a scan-all result.
type KeyVals struct {
	Key  string
	Vals [][]byte // one entry per node; nil = that node never wrote the key
}

// ScanAll snapshots every shard and returns the full keyed contents,
// sorted by key (deterministic across runs). Each key's value vector comes
// from its shard's one linearizable snapshot; like Keys, the combination
// across shards is a stitch, not a coordinated cut.
func (s *Store) ScanAll() ([]KeyVals, error) {
	snaps := make([][][]byte, len(s.shards))
	var all [][]byte
	for i, sh := range s.shards {
		snap, err := sh.svc.Scan()
		if err != nil {
			return nil, err
		}
		snaps[i] = snap
		all = append(all, snap...)
	}
	keys := MergeKeys(all)
	out := make([]KeyVals, 0, len(keys))
	for _, k := range keys {
		kv := KeyVals{Key: k, Vals: make([][]byte, s.n)}
		for node, seg := range snaps[s.ShardFor(k)] {
			for _, rec := range decodeRecords(seg) {
				if rec.K == k {
					kv.Vals[node] = rec.V
					break
				}
			}
		}
		out = append(out, kv)
	}
	return out, nil
}

// Scan snapshots the key's shard and returns each node's latest value for
// the key, one entry per node (nil = that node never wrote the key). The
// per-node values come from one linearizable snapshot of the shard.
func (s *Store) Scan(key string) ([][]byte, error) {
	snap, err := s.shards[s.ShardFor(key)].svc.Scan()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, s.n)
	for node, seg := range snap {
		for _, rec := range decodeRecords(seg) {
			if rec.K == key {
				out[node] = rec.V
				break
			}
		}
	}
	return out, nil
}
