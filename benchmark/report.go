package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"gcore"
)

// report turns the measured windows into metrics and prints them.
type report struct {
	w       *workload
	seed    int64
	length  time.Duration
	traced  bool
	notes   []string
	setup   float64
	plain   window // untraced
	tw      window // traced (empty in untraced runs)
	parseUS float64
	// probe is the host probe's median time in ms (see hostprobe.go).
	probe   float64
	recover time.Duration
	missing int
	// sliceSize is the reads per slice (0: timeSlices equal slices)
	// and groups the number of slice groups (see sliceMedian).
	sliceSize, groups int
}

func newReport(w *workload, seed int64, length time.Duration, traced bool) *report {
	return &report{w: w, seed: seed, length: length, traced: traced}
}

func (o *report) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of an untraced run. Every workload
// reports every one of them, so only metrics that all three workloads
// exercise are here; write latency, read p99 and the error rate are
// printed by every run and reported as per-layer metrics. The
// time-based ones are reported scaled to the nominal host speed (see
// hostprobe.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_qps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"cpu_ms_per_op", "ms"},
}

var coreOps = []string{"scan", "expand", "path", "filter", "residual", "join", "left-join", "construct", "select"}
var kernels = []string{"shortest", "reach", "all-paths"}
var classNames = []string{
	"point", "adhoc", "two_hop", "company_join", "reach", "shortest",
	"nr_messages", "colocated_reach", "colocated_shortest", "colocated_all", "company_group",
	"update", "insert", "lookup", "probe",
}

// perLayer are the metrics of a traced run. A metric of a layer the
// workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"server.overhead_ms", "ms"}, {"server.resp_kb", "kB"},
		{"engine.statement_ms", "ms"}, {"engine.read_statements", "count"}, {"engine.write_statements", "count"},
		{"plancache.hit_ratio", "ratio"}, {"plancache.misses", "count"}, {"plancache.evictions", "count"}, {"plancache.compile_ms", "ms"},
		{"parser.parse_us", "us"},
	}
	for _, op := range coreOps {
		defs = append(defs, metricDef{"core." + op + ".ms", "ms"}, metricDef{"core." + op + ".rows_out", "count"})
	}
	// The residual filter's self time excludes the per-row subqueries
	// it runs; its inclusive time shows their whole cost.
	defs = append(defs, metricDef{"core.residual.incl_ms", "ms"})
	for _, k := range kernels {
		defs = append(defs, metricDef{"rpq." + k + ".ms", "ms"}, metricDef{"rpq." + k + ".pops", "count"})
	}
	defs = append(defs,
		metricDef{"csr.reuses", "count"}, metricDef{"csr.full_builds", "count"}, metricDef{"csr.delta_applies", "count"},
		metricDef{"csr.fallbacks", "count"}, metricDef{"csr.delta_ops", "count"}, metricDef{"csr.copied_kb", "kB"},
		metricDef{"wal.appends", "count"}, metricDef{"wal.syncs", "count"}, metricDef{"wal.batched", "count"},
		metricDef{"wal.bytes_per_write", "B"}, metricDef{"wal.checkpoints", "count"}, metricDef{"wal.recover_s", "s"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.heap_peak_mb", "MB"}, metricDef{"runtime.cpu_util", "cores"},
		metricDef{"loadgen.lag_p99_ms", "ms"}, metricDef{"trace.overhead_pct", "%"},
	)
	for _, c := range classNames {
		defs = append(defs, metricDef{"class." + c + ".p50_ms", "ms"})
	}
	return append(defs,
		metricDef{"read_p99_ms", "ms"}, metricDef{"write_ops_s", "1/s"},
		metricDef{"write_p50_ms", "ms"}, metricDef{"write_p99_ms", "ms"}, metricDef{"error_rate", "ratio"},
	)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func qps(win window) float64 { return float64(len(win.t.reads)) / win.d.wall.Seconds() }

func sliceQPS(sl slice) float64 { return float64(len(sl.reads)) / sl.dur.Seconds() }

// slices cuts a window's reads for the slice medians: one graph's
// pass over the classes per slice for a whole-rounds workload,
// timeSlices slices otherwise.
func (o *report) slices(t *tally) []slice { return t.slices(o.sliceSize) }

// endToEndValues computes the end-to-end metrics of a window, plus
// the ungated ones that only some workloads exercise (NaN when absent
// or, for p99, when fewer than ten samples lie beyond it).
func (o *report) endToEndValues(win window) map[string]float64 {
	t, d := win.t, win.d
	ops := len(t.reads) + len(t.writes)
	sls := o.slices(t)
	v := map[string]float64{
		"setup_s":         o.setup,
		"read_qps":        sliceMedian(sls, o.groups, sliceQPS),
		"read_p50_ms":     sliceMedian(sls, o.groups, func(sl slice) float64 { return sl.reads.quantile(0.50) }),
		"read_p95_ms":     sliceMedian(sls, o.groups, func(sl slice) float64 { return sl.reads.quantile(0.95) }),
		"alloc_mb_per_op": float64(d.allocBytes) / float64(max(ops, 1)) / 1e6,
		"cpu_ms_per_op":   ms(d.cpu) / float64(max(ops, 1)),
		"read_p99_ms":     math.NaN(),
		"write_ops_s":     math.NaN(),
		"write_p50_ms":    math.NaN(),
		"write_p99_ms":    math.NaN(),
		"error_rate":      ratio(int64(t.failed), int64(t.attempted)),
	}
	if t.reads.supports(0.99) {
		v["read_p99_ms"] = t.reads.quantile(0.99)
	}
	if len(t.writes) > 0 {
		v["write_ops_s"] = float64(len(t.writes)) / d.wall.Seconds()
		v["write_p50_ms"] = t.writes.quantile(0.50)
		if t.writes.supports(0.99) {
			v["write_p99_ms"] = t.writes.quantile(0.99)
		}
	}
	return v
}

// scaled converts raw end-to-end values to the nominal host speed:
// times shrink and rates grow by probeNominal / probe on a host slower
// than nominal. Allocation is not a time and stays as measured.
func (o *report) scaled(v map[string]float64) map[string]float64 {
	f := ms(probeNominal) / o.probe
	out := map[string]float64{}
	for k, x := range v {
		switch k {
		case "setup_s", "read_p50_ms", "read_p95_ms", "cpu_ms_per_op":
			x *= f
		case "read_qps":
			x /= f
		}
		out[k] = x
	}
	return out
}

// layerValues computes the per-layer metrics: span attribution from
// the traced window, counter deltas from the traced window, and class
// latencies and the ungated end-to-end metrics from the untraced one.
func (o *report) layerValues() map[string]float64 {
	tw, d := o.tw, o.tw.d
	v := map[string]float64{}
	var httpN int
	var respBytes int64
	var httpDur, stmtDur time.Duration
	var residualIncl time.Duration
	self := map[string]time.Duration{}
	rows := map[string]int64{}
	pops := map[string]int64{}
	for _, s := range tw.spans {
		if s.engine {
			if s.op == gcore.OpStatement && s.Depth == 0 {
				stmtDur += s.dur
			}
			if s.op == gcore.OpResidual && s.Depth == 0 {
				residualIncl += s.dur
			}
			self[s.Name] += s.self
			rows[s.Name] += s.RowsOut
			pops[s.Name] += s.Pops
			continue
		}
		if s.Name == "http" {
			httpN++
			httpDur += s.dur
			respBytes += s.Bytes
		}
	}
	perReq := func(x float64) float64 { return x / float64(max(httpN, 1)) }
	v["server.overhead_ms"] = perReq(ms(httpDur - stmtDur))
	v["server.resp_kb"] = perReq(float64(respBytes) / 1000)
	v["engine.statement_ms"] = perReq(ms(stmtDur))
	v["engine.read_statements"] = float64(d.readStmts)
	v["engine.write_statements"] = float64(d.writeStmts)
	v["plancache.hit_ratio"] = ratio(d.planHits, d.planHits+d.planMisses)
	v["plancache.misses"] = float64(d.planMisses)
	v["plancache.evictions"] = float64(d.planEvicts)
	v["plancache.compile_ms"] = ms(d.planCompile)
	v["parser.parse_us"] = o.parseUS
	for _, op := range coreOps {
		v["core."+op+".ms"] = ms(self[op])
		v["core."+op+".rows_out"] = float64(rows[op])
	}
	v["core.residual.incl_ms"] = ms(residualIncl)
	for _, k := range kernels {
		v["rpq."+k+".ms"] = ms(self[k])
		v["rpq."+k+".pops"] = float64(pops[k])
	}
	v["csr.reuses"] = float64(d.csrReuses)
	v["csr.full_builds"] = float64(d.snapFull)
	v["csr.delta_applies"] = float64(d.snapDeltas)
	v["csr.fallbacks"] = float64(d.snapFalls)
	v["csr.delta_ops"] = float64(d.snapOps)
	v["csr.copied_kb"] = float64(d.snapCopied) / 1000
	v["wal.appends"] = float64(d.walAppends)
	v["wal.syncs"] = float64(d.walSyncs)
	v["wal.batched"] = float64(d.walBatched)
	v["wal.bytes_per_write"] = ratio(d.walBytes, int64(len(tw.t.writes)))
	v["wal.checkpoints"] = float64(d.walCkpts)
	v["wal.recover_s"] = o.recover.Seconds()
	v["runtime.gc_cycles"] = float64(d.gcCycles)
	v["runtime.gc_pause_ms"] = ms(d.gcPause)
	v["runtime.heap_peak_mb"] = float64(tw.heapPeak) / 1e6
	v["runtime.cpu_util"] = d.cpu.Seconds() / d.wall.Seconds()
	v["loadgen.lag_p99_ms"] = 0
	if len(o.plain.t.lag) > 0 {
		v["loadgen.lag_p99_ms"] = o.plain.t.lag.quantile(0.99)
	}
	v["trace.overhead_pct"] = (qps(o.plain) - qps(tw)) / qps(o.plain) * 100
	for _, c := range classNames {
		v["class."+c+".p50_ms"] = 0
		if s := o.plain.t.byClass[c]; len(s) > 0 {
			v["class."+c+".p50_ms"] = s.quantile(0.5)
		}
	}
	e2e := o.endToEndValues(o.plain)
	for _, k := range []string{"read_p99_ms", "write_ops_s", "write_p50_ms", "write_p99_ms", "error_rate"} {
		v[k] = e2e[k]
	}
	return v
}

// print writes the human-readable report and the result line, and
// reports whether every output check passed.
func (o *report) print() bool {
	mode := "untraced"
	if o.traced {
		mode = "traced (untraced first half, traced second half)"
	}
	fmt.Printf("workload %s seed %d, %s, %.1f s measured\n", o.w.name, o.seed, mode, o.length.Seconds())
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	o.printWindow("untraced", o.plain)
	if o.traced {
		o.printWindow("traced", o.tw)
	}

	attempted := o.plain.t.attempted + o.tw.t.attempted
	failed := o.plain.t.failed + o.tw.t.failed + o.missing
	if o.w.ingest {
		fmt.Printf("  durability: reopened in %.3f s; %d acknowledged writes missing after recovery\n", o.recover.Seconds(), o.missing)
	}
	for _, win := range []window{o.plain, o.tw} {
		for _, f := range win.t.failures {
			fmt.Println("  FAILED " + f)
		}
	}

	var defs []metricDef
	var vals map[string]float64
	if o.traced {
		defs, vals = perLayer(), o.layerValues()
		fmt.Println("per-layer metrics (traced half; class latencies and end-to-end extras from the untraced half):")
	} else {
		defs, vals = endToEnd, o.scaled(o.endToEndValues(o.plain))
		fmt.Printf("end-to-end metrics (times scaled by %v nominal / %.3f ms probed host speed):\n", probeNominal, o.probe)
	}
	metrics := map[string]metricValue{}
	for _, m := range defs {
		x := vals[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // absent: the workload does not exercise it
		}
		metrics[m.name] = metricValue{Value: x, Unit: m.unit}
		fmt.Printf("  %-28s %14.4f %s\n", m.name, x, m.unit)
	}
	correct := failed == 0
	// Marshalling cannot fail: every value is a finite float.
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(attempted, 1), failed, metrics})
	fmt.Println(string(line))
	return correct
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printWindow prints one window's latencies and counter deltas, every
// ratio with its base.
func (o *report) printWindow(name string, win window) {
	t, d := win.t, win.d
	v := o.endToEndValues(win)
	fmt.Printf("%s window: %.3f s wall, %d attempted, %d failed\n", name, d.wall.Seconds(), t.attempted, t.failed)
	nslices := len(o.slices(t))
	show := func(metric, unit, base string) {
		x := v[metric]
		if math.IsNaN(x) {
			fmt.Printf("  %-20s absent (%s)\n", metric, base)
			return
		}
		fmt.Printf("  %-20s %12.4f %-5s (%s)\n", metric, x, unit, base)
	}
	show("setup_s", "s", fmt.Sprintf("median of %d set-ups", setupRepeats))
	show("read_qps", "1/s", fmt.Sprintf("median over %d slices; whole window %d reads / %.3f s = %.4f", nslices, len(t.reads), d.wall.Seconds(), qps(win)))
	show("read_p50_ms", "ms", fmt.Sprintf("median over %d slices; whole window n=%d p50 %.4f", nslices, len(t.reads), t.reads.quantile(0.5)))
	show("read_p95_ms", "ms", fmt.Sprintf("median over %d slices; whole window n=%d p95 %.4f", nslices, len(t.reads), t.reads.quantile(0.95)))
	show("read_p99_ms", "ms", fmt.Sprintf("n=%d; reported when at least 10 samples lie beyond", len(t.reads)))
	show("write_ops_s", "1/s", fmt.Sprintf("%d acknowledged writes", len(t.writes)))
	show("write_p50_ms", "ms", fmt.Sprintf("n=%d, from due time", len(t.writes)))
	show("write_p99_ms", "ms", fmt.Sprintf("n=%d, from due time", len(t.writes)))
	show("error_rate", "ratio", fmt.Sprintf("%d failed / %d attempted", t.failed, t.attempted))
	show("alloc_mb_per_op", "MB", fmt.Sprintf("%.1f MB allocated / %d operations", float64(d.allocBytes)/1e6, len(t.reads)+len(t.writes)))
	show("cpu_ms_per_op", "ms", fmt.Sprintf("%.3f s process CPU / %d operations", d.cpu.Seconds(), len(t.reads)+len(t.writes)))
	fmt.Printf("  host CPU steal %.1f%% of machine CPU time during the window\n", 100*d.stealShare)

	names := make([]string, 0, len(t.byClass))
	for c := range t.byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		s := t.byClass[c]
		fmt.Printf("  class %-18s n=%-6d p50 %10.4f ms  p95 %10.4f ms\n", c, len(s), s.quantile(0.5), s.quantile(0.95))
	}
	if len(t.lag) > 0 {
		fmt.Printf("  loadgen lag p99 %.4f ms (n=%d)\n", t.lag.quantile(0.99), len(t.lag))
	}
	fmt.Printf("  counters: statements %d read / %d write; plan cache hit ratio %.4f (%d hits / %d probes), %d evictions, %.3f ms compiling\n",
		d.readStmts, d.writeStmts, ratio(d.planHits, d.planHits+d.planMisses), d.planHits, d.planHits+d.planMisses, d.planEvicts, ms(d.planCompile))
	fmt.Printf("  counters: csr %d reuses / %d builds (%d full, %d delta applies over %d ops, %d fallbacks, %.1f kB copied)\n",
		d.csrReuses, d.csrBuilds, d.snapFull, d.snapDeltas, d.snapOps, d.snapFalls, float64(d.snapCopied)/1000)
	if o.w.ingest {
		fmt.Printf("  counters: wal %d appends, %d syncs, %d batched, %d checkpoints, %.1f bytes/write (%d bytes / %d writes)\n",
			d.walAppends, d.walSyncs, d.walBatched, d.walCkpts, ratio(d.walBytes, int64(len(t.writes))), d.walBytes, len(t.writes))
	}
	fmt.Printf("  counters: runtime %d GC cycles, %.3f ms GC pause, heap peak %.1f MB, cpu %.3f s / %.3f s wall = %.3f cores\n",
		d.gcCycles, ms(d.gcPause), float64(win.heapPeak)/1e6, d.cpu.Seconds(), d.wall.Seconds(), d.cpu.Seconds()/d.wall.Seconds())
	ops := make([]string, 0, len(d.ops))
	for op := range d.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		od := d.ops[op]
		if od.count == 0 {
			continue
		}
		fmt.Printf("  counters: operator %-10s %7d spans, %10d rows out, %10d pops, %10.3f ms (engine Metrics, inclusive)\n",
			op, od.count, od.rowsOut, od.pops, ms(od.elapsed))
	}
}
