package core

import (
	"testing"
)

// Micro-benchmarks comparing the reference map engine (ValueSet) with the
// history-independent log engine (ValueLog) on the four hot-path
// operations of Algorithm 1: value insertion, cardinality queries,
// view materialization, and EQ-tracker setup. Run with
//
//	go test ./internal/core -bench . -benchmem   (or: make bench-core)
//
// The interesting column is allocs/op: the log engine's queries are
// allocation-free at or below the frontier regardless of history length,
// while the map engine rescans and reallocates O(H) state per view.
const (
	benchNodes = 8
	benchH     = 16384 // prefilled history length for query benchmarks
)

func benchValue(i int) Value {
	return Value{
		TS:      Timestamp{Tag: Tag(i + 1), Writer: i % benchNodes},
		Payload: []byte("payload-01234567"),
	}
}

// prefillSets builds the map engine's state after H values: every value
// is in V[src] and V[self] (the containment invariant of line 40).
func prefillSets(h int) []*ValueSet {
	V := make([]*ValueSet, benchNodes)
	for j := range V {
		V[j] = NewValueSet()
	}
	for i := 0; i < h; i++ {
		v := benchValue(i)
		V[i%benchNodes].Add(v)
		V[0].Add(v)
	}
	return V
}

// prefillLog builds the log engine's state after H values, with the
// frontier advanced over the first half (steady state: the node keeps
// performing good lattice operations as history grows).
func prefillLog(h int) *ValueLog {
	l := NewValueLog(benchNodes, 0)
	for i := 0; i < h; i++ {
		l.Add(i%benchNodes, benchValue(i))
	}
	l.AdvanceFrontier(Tag(h / 2))
	return l
}

func BenchmarkValueSetAdd(b *testing.B) {
	b.Run("map", func(b *testing.B) {
		V := make([]*ValueSet, benchNodes)
		for j := range V {
			V[j] = NewValueSet()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := benchValue(i)
			V[i%benchNodes].Add(v)
			V[0].Add(v)
		}
	})
	b.Run("log", func(b *testing.B) {
		l := NewValueLog(benchNodes, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Add(i%benchNodes, benchValue(i))
		}
	})
}

func BenchmarkCountLE(b *testing.B) {
	b.Run("map", func(b *testing.B) {
		V := prefillSets(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			V[i%benchNodes].CountLE(Tag(i % benchH))
		}
	})
	b.Run("log", func(b *testing.B) {
		l := prefillLog(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.CountLE(i%benchNodes, Tag(i%benchH))
		}
	})
}

func BenchmarkViewLE(b *testing.B) {
	r := Tag(benchH / 2) // at the log's frontier: the zero-copy fast path
	b.Run("map", func(b *testing.B) {
		V := prefillSets(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			V[0].ViewLE(r)
		}
	})
	b.Run("log", func(b *testing.B) {
		l := prefillLog(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.ViewLE(r)
		}
	})
}

func BenchmarkEQTrackerSetup(b *testing.B) {
	r := Tag(benchH / 2)
	quorum := benchNodes - 1
	b.Run("map", func(b *testing.B) {
		V := prefillSets(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewEQTracker(V, 0, r, quorum)
		}
	})
	b.Run("log", func(b *testing.B) {
		l := prefillLog(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewEQTrackerFromLog(l, r, quorum)
		}
	})
}

// BenchmarkBelowFrontierThenAppend is the straggler pattern of a busy
// node: a value arrives below the frozen frontier (copy-on-write), then
// new values append. The copy must leave room for the appends, or each
// round pays two whole-log copies instead of one.
func BenchmarkBelowFrontierThenAppend(b *testing.B) {
	const appends = 4
	l := NewValueLog(benchNodes, 0)
	for i := 0; i < benchH; i++ {
		l.Add(0, Value{TS: Timestamp{Tag: Tag(2 * (i + 1)), Writer: 0}, Payload: benchValue(i).Payload})
	}
	next := Tag(2 * (benchH + 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AdvanceFrontier(next)
		// An odd tag below the frontier: the writer-1 straggler.
		l.Add(1, Value{TS: Timestamp{Tag: next - 1, Writer: 1}, Payload: benchValue(i).Payload})
		for k := 0; k < appends; k++ {
			next += 2
			l.Add(0, Value{TS: Timestamp{Tag: next, Writer: 0}, Payload: benchValue(i).Payload})
		}
	}
}
