package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// phaseList is every protocol phase the two engines emit through
// SetObserver (eqaso, then acr); a metric name spells "renewal:1" as
// "renewal-1".
var phaseList = []string{
	"readTag", "disseminate", "writeTag", "eqWait", "eqGood", "eqNotGood",
	"renewal:1", "renewal:2", "renewal:3", "borrow", "collect", "propose",
}

// layerUnits names every per-layer metric with its unit, in print order.
// A metric of a layer the workload does not use (core and the eqaso
// engine counters on acr, wal without a WAL, a phase the engine never
// enters) reads 0.
var layerUnits = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"gen.late_p99_us", "us"},
		{"gen.admit_us.p99", "us"},
		{"svc.resolve_us.p50", "us"},
		{"svc.resolve_us.p99", "us"},
		{"svc.queue_wait_us.mean", "us"},
		{"svc.update_amortization", "ratio"},
		{"svc.scan_amortization", "ratio"},
		{"svc.queue_depth.p99", "count"},
		{"svc.window.final", "count"},
		{"engine.update_us.p50", "us"},
		{"engine.update_us.p99", "us"},
		{"engine.scan_us.p50", "us"},
		{"engine.scan_us.p99", "us"},
	}
	for _, p := range phaseList {
		out = append(out, struct{ name, unit string }{"engine.phase." + metricPhase(p) + "_us.p50", "us"})
	}
	return append(out, []struct{ name, unit string }{
		{"engine.handler_us.p50", "us"},
		{"engine.handler_us.p99", "us"},
		{"engine.handler_busy_frac", "ratio"},
		{"engine.msgs_handled_per_op", "1/op"},
		{"engine.lattice_ops_per_op", "1/op"},
		{"engine.direct_view_ratio", "ratio"},
		{"engine.borrow_escalations_per_op", "1/op"},
		{"core.values_total", "count"},
		{"core.retained_values", "count"},
		{"core.log_bytes", "B"},
		{"core.cow_inserts_per_op", "1/op"},
		{"core.demotions_per_op", "1/op"},
		{"core.pruned_values", "count"},
		{"transport.msgs_sent_per_op", "1/op"},
		{"transport.bytes_sent_per_op", "B/op"},
		{"transport.send_to_deliver_us.p50", "us"},
		{"transport.send_to_deliver_us.p99", "us"},
		{"transport.dispatch_wait_us.p50", "us"},
		{"transport.dispatch_wait_us.p99", "us"},
		{"transport.reads_per_msg", "ratio"},
		{"wire.encode_ns_per_msg", "ns"},
		{"wire.decode_ns_per_msg", "ns"},
		{"wire.bytes_per_msg", "B"},
		{"wal.sync_us.p50", "us"},
		{"wal.sync_us.p99", "us"},
		{"wal.write_us.p99", "us"},
		{"wal.syncs_per_op", "1/op"},
		{"wal.bytes_per_op", "B/op"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.alloc_bytes_per_op", "B/op"},
		{"runtime.allocs_per_op", "1/op"},
		{"runtime.sched_latency_us.p99", "us"},
		{"budget.error_frac", "ratio"},
		{"trace.overhead_ms", "ms"},
	}...)
}()

// budgetTolerance is the stated error of the latency budget: the measured
// parts must add up to the client mean within this share of it. The
// residual is mostly the client goroutine's wake-up after svc resolved
// its op, which no public boundary times.
const budgetTolerance = 0.15

// budget splits the traced pass's mean client latency (ns) into the
// generator's lateness, its time inside UpdateAsync/ScanAsync, the svc
// queue wait and the protocol call that served the op.
type budget struct {
	total, late, admit, queue, proto, residual float64
	overhead                                   float64 // traced minus untraced client mean
}

func (p *pass) budget(base endToEnd) budget {
	e := p.endToEnd()
	t := p.tr
	var b budget
	b.total = e.meanLatNs
	b.late = mean(e.late)
	b.admit = mean(e.admits)
	if n := t.svcOps.Load(); n > 0 {
		b.proto = float64(t.protoSum.Load()) / float64(n)
		b.queue = float64(t.svcDurSum.Load())/float64(n) - b.proto
	}
	b.residual = b.total - b.late - b.admit - b.queue - b.proto
	b.overhead = e.meanLatNs - base.meanLatNs
	return b
}

func (b budget) errorFrac() float64 {
	if b.total == 0 {
		return 0
	}
	return math.Abs(b.residual) / b.total
}

// layerMetrics computes every per-layer metric. Timings that need a
// wrapper come from the traced pass; counters the program exports itself
// (svc.Stats, eqaso Stats/Memory/LogStats, runtime/metrics) and the
// generator's own timings come from the untraced pass.
func layerMetrics(base, tr *pass) (map[string]metric, error) {
	be, te := base.endToEnd(), tr.endToEnd()
	t := tr.tr
	v := make(map[string]float64)
	us := func(ns float64) float64 { return ns / 1e3 }
	per := func(x float64, ops int) float64 {
		if ops == 0 {
			return 0
		}
		return x / float64(ops)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["gen.late_p99_us"] = us(exactQuantile(be.late, 0.99))
	v["gen.admit_us.p99"] = us(exactQuantile(be.admits, 0.99))

	v["svc.resolve_us.p50"] = us(t.svcResolve.Snapshot().Quantile(0.50))
	v["svc.resolve_us.p99"] = us(t.svcResolve.Snapshot().Quantile(0.99))
	bud := tr.budget(be)
	v["svc.queue_wait_us.mean"] = us(bud.queue)
	var upd, pupd, scn, pscn float64
	var window int
	for i := range base.svc1 {
		upd += float64(base.svc1[i].Updates - base.svc0[i].Updates)
		pupd += float64(base.svc1[i].ProtoUpdates - base.svc0[i].ProtoUpdates)
		scn += float64(base.svc1[i].Scans - base.svc0[i].Scans)
		pscn += float64(base.svc1[i].ProtoScans - base.svc0[i].ProtoScans)
		if base.svc1[i].Window > window {
			window = base.svc1[i].Window
		}
	}
	v["svc.update_amortization"] = ratio(upd, pupd)
	v["svc.scan_amortization"] = ratio(scn, pscn)
	v["svc.queue_depth.p99"] = t.queueDepth.Snapshot().Quantile(0.99)
	v["svc.window.final"] = float64(window)

	v["engine.update_us.p50"] = us(t.engUpdate.Snapshot().Quantile(0.50))
	v["engine.update_us.p99"] = us(t.engUpdate.Snapshot().Quantile(0.99))
	v["engine.scan_us.p50"] = us(t.engScan.Snapshot().Quantile(0.50))
	v["engine.scan_us.p99"] = us(t.engScan.Snapshot().Quantile(0.99))
	for _, p := range phaseList {
		var q float64
		if h := t.phases[p]; h != nil {
			q = us(h.Snapshot().Quantile(0.50))
		}
		v["engine.phase."+metricPhase(p)+"_us.p50"] = q
	}
	v["engine.handler_us.p50"] = us(t.handler.Snapshot().Quantile(0.50))
	v["engine.handler_us.p99"] = us(t.handler.Snapshot().Quantile(0.99))
	v["engine.handler_busy_frac"] = ratio(float64(t.handlerBusy.Load()), float64(t.n)*float64(tr.end-tr.ws))
	v["engine.msgs_handled_per_op"] = per(float64(t.handled.Load()), te.windowOps)

	bops := be.windowOps
	var lat, direct, esc, cow, dem float64
	for i := range base.eq1 {
		lat += float64(base.eq1[i].LatticeOps - base.eq0[i].LatticeOps)
		direct += float64(base.eq1[i].DirectViews - base.eq0[i].DirectViews)
		esc += float64(base.eq1[i].BorrowsEscalated - base.eq0[i].BorrowsEscalated)
		cow += float64(base.log1[i].COWInserts - base.log0[i].COWInserts)
		dem += float64(base.log1[i].Demotions - base.log0[i].Demotions)
	}
	v["engine.lattice_ops_per_op"] = per(lat, bops)
	v["engine.direct_view_ratio"] = ratio(direct, lat)
	v["engine.borrow_escalations_per_op"] = per(esc, bops)
	var vals, ret, bytes, pruned float64
	for _, m := range base.mem {
		vals += float64(m.Values)
		ret += float64(m.Retained)
		bytes += float64(m.LogBytes)
		pruned += float64(m.Pruned)
	}
	if k := float64(len(base.mem)); k > 0 {
		vals, ret, bytes, pruned = vals/k, ret/k, bytes/k, pruned/k
	}
	v["core.values_total"] = vals
	v["core.retained_values"] = ret
	v["core.log_bytes"] = bytes
	v["core.cow_inserts_per_op"] = per(cow, bops)
	v["core.demotions_per_op"] = per(dem, bops)
	v["core.pruned_values"] = pruned

	v["transport.msgs_sent_per_op"] = per(float64(t.sent.Load()), te.windowOps)
	v["transport.bytes_sent_per_op"] = per(float64(t.sentBytes.Load()), te.windowOps)
	v["transport.send_to_deliver_us.p50"] = us(t.sendToDeliver.Snapshot().Quantile(0.50))
	v["transport.send_to_deliver_us.p99"] = us(t.sendToDeliver.Snapshot().Quantile(0.99))
	v["transport.dispatch_wait_us.p50"] = us(t.dispatchWait.Snapshot().Quantile(0.50))
	v["transport.dispatch_wait_us.p99"] = us(t.dispatchWait.Snapshot().Quantile(0.99))
	v["transport.reads_per_msg"] = ratio(float64(t.reads.Load()), float64(t.delivered.Load()))

	wr, err := t.replayWire(300 * time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	v["wire.encode_ns_per_msg"] = wr.encodeNs
	v["wire.decode_ns_per_msg"] = wr.decodeNs
	v["wire.bytes_per_msg"] = wr.bytesPer

	v["wal.sync_us.p50"] = us(t.walSync.Snapshot().Quantile(0.50))
	v["wal.sync_us.p99"] = us(t.walSync.Snapshot().Quantile(0.99))
	v["wal.write_us.p99"] = us(t.walWrite.Snapshot().Quantile(0.99))
	v["wal.syncs_per_op"] = per(float64(t.walSyncs.Load()), te.windowOps)
	v["wal.bytes_per_op"] = per(float64(t.walBytes.Load()), te.windowOps)

	gc, err := base.rtDelta(0)
	if err != nil {
		return nil, err
	}
	cpu, err := base.rtDelta(1)
	if err != nil {
		return nil, err
	}
	cycles, err := base.rtDelta(2)
	if err != nil {
		return nil, err
	}
	allocB, err := base.rtDelta(3)
	if err != nil {
		return nil, err
	}
	allocN, err := base.rtDelta(4)
	if err != nil {
		return nil, err
	}
	sched, err := base.schedP99()
	if err != nil {
		return nil, err
	}
	v["runtime.gc_cpu_frac"] = ratio(gc, cpu)
	v["runtime.gc_cycles"] = cycles
	v["runtime.alloc_bytes_per_op"] = per(allocB, bops)
	v["runtime.allocs_per_op"] = per(allocN, bops)
	v["runtime.sched_latency_us.p99"] = sched * 1e6

	v["budget.error_frac"] = bud.errorFrac()
	v["trace.overhead_ms"] = bud.overhead / 1e6

	out := make(map[string]metric, len(layerUnits))
	for _, m := range layerUnits {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, nil
}

// printLayers prints the per-layer metrics, the phases actually seen, the
// message mix and the latency budget.
func printLayers(w io.Writer, base, tr *pass, ms map[string]metric) {
	for _, m := range layerUnits {
		fmt.Fprintf(w, "layer %-34s %-5s %.6g\n", m.name, m.unit, ms[m.name].Value)
	}
	t := tr.tr
	for _, p := range t.phaseNames() {
		h := t.phases[p]
		fmt.Fprintf(w, "phase %-12s n=%-8d p50_us=%.4g p99_us=%.4g\n", p, h.Snapshot().Count, h.Snapshot().Quantile(0.5)/1e3, h.Snapshot().Quantile(0.99)/1e3)
	}
	kinds := t.kindCounts()
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "wire  kind=%-14s handled=%d\n", k, kinds[k])
	}
	be := base.endToEnd()
	b := tr.budget(be)
	row := func(name string, ns float64) {
		fmt.Fprintf(w, "budget %-34s %10.1f us %6.1f%%\n", name, ns/1e3, 100*ns/b.total)
	}
	row("gen lateness (due -> issue)", b.late)
	row("gen admission (inside *Async)", b.admit)
	row("svc queue wait", b.queue)
	row("engine protocol call", b.proto)
	row("residual (wake-up, unattributed)", b.residual)
	row("client mean latency (traced)", b.total)
	ok := "within"
	if b.errorFrac() > budgetTolerance {
		ok = "OUTSIDE"
	}
	fmt.Fprintf(w, "budget error |residual|/total = %.2f%% (%s the stated %.0f%%)\n", 100*b.errorFrac(), ok, 100*budgetTolerance)
	fmt.Fprintf(w, "budget tracing_overhead = %+.1f us on the client mean (traced %.1f us, untraced %.1f us)\n",
		b.overhead/1e3, b.total/1e3, be.meanLatNs/1e3)
}
