package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"bytes_per_sub", "B"},
}

// perLayer are the metrics a traced run reports, named by module. A layer
// a workload's path does not include reads 0 and the report says so.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"netsim.build_ms", "ms"},
		{"sim.delivered_per_op", "count"},
		{"sim.ns_per_delivery", "ns"},
		{"sim.self_ms", "ms"},
		{"sim.cross_shard_per_op", "count"},
	}
	for _, c := range nodeClasses {
		defs = append(defs,
			metricDef{c + ".recv_per_op", "count"},
			metricDef{c + ".busy_ms", "ms"},
			metricDef{c + ".ns_per_recv", "ns"})
	}
	for _, p := range codecPkgs {
		defs = append(defs,
			metricDef{p.name + ".msgs_per_op", "count"},
			metricDef{p.name + ".encode_ns", "ns"},
			metricDef{p.name + ".decode_ns", "ns"},
			metricDef{p.name + ".bytes_per_msg", "B"})
	}
	return append(defs,
		metricDef{"slab.first_insert_bytes", "B"},
		metricDef{"slab.alloc_ns", "ns"},
		metricDef{"slab.index_get_ns", "ns"},
		metricDef{"slab.free_ns", "ns"},
		metricDef{"heap.alloc_bytes_per_op", "B"},
		metricDef{"heap.mallocs_per_op", "count"},
		metricDef{"gc.cycles_per_op", "count"},
		metricDef{"gc.pause_ms", "ms"},
		metricDef{"gc.cpu_fraction", "fraction"},
		metricDef{"trace.overhead_ms", "ms"},
	)
}()

// endToEndValues computes the end-to-end metrics from the untraced ops.
func endToEndValues(res *result) map[string]float64 {
	var setups []float64
	for _, d := range res.Setups {
		setups = append(setups, d.Seconds())
	}
	wall := sum(res.OpWall).Seconds()
	v := map[string]float64{
		"setup_s":       median(setups),
		"op_p50_ms":     ms(quantile(res.OpWall, 0.50)),
		"bytes_per_sub": res.BytesPerSub,
	}
	if wall > 0 {
		v["work_per_s"] = res.Work / wall
	}
	return v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finalLine is the last line of standard output.
func finalLine(cfg config, res *result) finalOut {
	defs, vals := endToEnd, endToEndValues(res)
	if cfg.Trace {
		defs, vals = perLayer, res.Layers.metrics
	}
	out := finalOut{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{vals[d.name], d.unit}
	}
	return out
}

// printReport writes the human-readable report that precedes the final
// line: the machine, every end-to-end metric and workload-specific
// quantity with its unit, the sample counts, the simulated statistics,
// and in a traced run the per-layer split with its notes.
func printReport(w io.Writer, cfg config, res *result) {
	mj, _ := json.Marshal(res.Machine)
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(w, "machine %s\n", mj)
	fmt.Fprintf(w, "ops: %d attempted, %d failed (error_rate %.6f); %d untraced ops timed; %d set-ups; work unit: %s\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted),
		len(res.OpWall), len(res.Setups), res.WorkUnit)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	e2e := endToEndValues(res)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", d.name, e2e[d.name], d.unit)
	}
	// Reported without a bound: they move too much between runs on a
	// shared host (README.md).
	fmt.Fprintf(w, "  %-24s %14.6g ms\n", "op_p90_ms", ms(quantile(res.OpWall, 0.90)))
	fmt.Fprintf(w, "  %-24s %14.6g ms\n", "op_p99_ms", ms(quantile(res.OpWall, 0.99)))
	fmt.Fprintf(w, "  %-24s %14.6g MB\n", "peak_heap_mb", float64(quantile(res.Heap, 1))/(1<<20))
	fmt.Fprintf(w, "  %-24s %14.6g MB\n", "heap_p90_mb", float64(quantile(res.Heap, 0.9))/(1<<20))
	fmt.Fprintf(w, "  (percentiles over %d untraced ops: %d beyond op_p90_ms, %d beyond op_p99_ms)\n",
		len(res.OpWall), len(res.OpWall)/10, len(res.OpWall)/100)
	for _, n := range res.Named {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", n.Name, n.Value, n.Unit)
	}
	sj, _ := json.Marshal(res.Sim)
	fmt.Fprintf(w, "simulated %s\n", sj)
	t := res.Layers
	if t == nil {
		return
	}
	fmt.Fprintf(w, "traced: %d ops traced, %d untraced; %d spans kept, %d dropped\n",
		t.ops, len(res.OpWall), len(t.spans.spans), t.spans.dropped)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, t.metrics[d.name], d.unit)
	}
	ifaces := make([]string, 0, len(t.ifaces))
	for k := range t.ifaces {
		ifaces = append(ifaces, k)
	}
	sort.Strings(ifaces)
	var b strings.Builder
	for _, k := range ifaces {
		fmt.Fprintf(&b, " %s=%.4g", k, float64(t.ifaces[k])/float64(max(t.ops, 1)))
	}
	fmt.Fprintf(w, "messages per traced op by interface:%s\n", b.String())
	types := make([]*msgType, 0, len(t.types))
	for _, mt := range t.types {
		types = append(types, mt)
	}
	sort.Slice(types, func(i, j int) bool { return types[i].name < types[j].name })
	b.Reset()
	for _, mt := range types {
		fmt.Fprintf(&b, " %s=%.4g", mt.name, float64(mt.count)/float64(max(t.ops, 1)))
	}
	fmt.Fprintf(w, "messages per traced op by type:%s\n", b.String())
	for _, note := range t.notes {
		fmt.Fprintf(w, "note: %s\n", note)
	}
}
