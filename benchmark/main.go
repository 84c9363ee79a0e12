// Command benchmark is the repository's end-to-end benchmark. It
// serves the internal/server handler that cmd/gcored mounts on a
// loopback port, in-process, generates one workload from a seed with
// the SNB generator, drives it with closed-loop HTTP clients (and, for
// ingest, an open-loop durable writer), checks every output against a
// reference computed through the direct Session API, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run is split into an untraced and a
// traced half, and the metrics are the per-layer ones: engine operator
// spans recorded through the public TraceHandler hook, client spans
// around the benchmark's own calls, and counter deltas. Usage:
//
//	bash benchmark/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//
// The process exits non-zero when any output check fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gcore"
	"gcore/internal/parser"
	"gcore/internal/server"
)

var bg = context.Background()

// setupRepeats is how many times a run sets the system up; setup_s is
// the median.
const setupRepeats = 5

func main() {
	workload := flag.String("workload", "", "interactive, analytic or ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload interactive|analytic|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ok, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// rig is one set-up instance of the system under test.
type rig struct {
	eng     *gcore.Engine
	metrics func() gcore.Metrics
	svc     *service
	clients []*clientState
	ing     *ingester
}

// stopServing closes the client connections and stops the server.
func (r *rig) stopServing() {
	for _, cs := range r.clients {
		cs.c.close()
	}
	r.svc.stop()
}

func (r *rig) close() {
	r.stopServing()
	if r.ing != nil {
		r.ing.close()
	}
}

// setup builds the system under test: data generation, registration
// (for ingest: durable open, registration and the first checkpoint),
// server start, client sessions and prepared statements (preparing
// compiles each into the plan cache), and one warm-up request of the
// mix's first class per graph, which builds each graph's first
// snapshot.
func setup(w *workload, seed int64, m *mix) (*rig, error) {
	r := &rig{}
	var backend server.Backend
	if w.ingest {
		ing, err := openIngester(seed, w.persons)
		if err != nil {
			return nil, err
		}
		r.ing, r.eng, backend = ing, ing.d.Engine, ing.d
		for _, cl := range m.classes {
			if cl.name == "probe" {
				cl.custom = ing.probe
			}
		}
	} else {
		eng := gcore.NewEngine()
		if _, _, err := datasets(eng, w, seed); err != nil {
			return nil, err
		}
		r.eng, backend = eng, eng
	}
	r.metrics = backend.Metrics
	svc, err := startService(backend)
	if err != nil {
		if r.ing != nil {
			r.ing.close()
		}
		return nil, err
	}
	r.svc = svc
	for i := 0; i < w.clients; i++ {
		cs, err := newClientState(svc.url, m, seed*31+int64(i))
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cs)
	}
	warm := map[string]bool{}
	first := m.classes[0]
	for i := range first.pool {
		if g := m.graphOf(&first.pool[i]); !warm[g] {
			warm[g] = true
			if err := r.clients[0].do(m, slot{first, i}); err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up %s: %w", first.name, err)
			}
		}
	}
	return r, nil
}

// window is one measured interval; spans are set for the traced one.
type window struct {
	t        *tally
	d        delta
	heapPeak uint64
	spans    []spanRecord
}

func measure(r *rig, w *workload, m *mix, length time.Duration, rec *recorder) window {
	for _, cs := range r.clients {
		cs.rec = rec
	}
	// Start every window from a collected heap, so garbage from set-up
	// and earlier windows does not set the collector's pace.
	runtime.GC()
	heap := startHeapSampler()
	before := takeSnapshot(r.metrics)
	until := before.at.Add(length)
	t := newTally(before.at)
	done := make(chan struct{})
	if r.ing != nil {
		go func() {
			defer close(done)
			r.ing.run(until, t, rec)
		}()
	} else {
		close(done)
	}
	runClosed(m, r.clients, until, w.wholeRounds, t)
	<-done
	after := takeSnapshot(r.metrics)
	return window{t: t, d: diff(before, after), heapPeak: heap.finish()}
}

func run(w *workload, seed int64, length time.Duration, traced bool) (bool, error) {
	// Inputs and reference digests: a separate engine at parallelism 1
	// over the same seed's data, queried through the Session API.
	probes := probeHost()
	refStart := time.Now()
	refEng := gcore.NewEngine(gcore.WithParallelism(1))
	socials, companies, err := datasets(refEng, w, seed)
	if err != nil {
		return false, err
	}
	m := w.plan(seed, socials, companies)
	if err := m.reference(refEng); err != nil {
		return false, err
	}
	refTime := time.Since(refStart)
	out := newReport(w, seed, length, traced)
	for _, g := range append(socials, companies) {
		out.note("graph %s: %d nodes, %d edges", g.Name(), g.NumNodes(), g.NumEdges())
	}
	out.note("reference digests computed in %.3f s (not part of setup_s)", refTime.Seconds())
	// The reference engine's graphs must not stay live beside the
	// system under test: extra live heap would slow its garbage
	// collector's pace and flatter allocation-heavy workloads.
	refEng, socials, companies = nil, nil, nil
	runtime.GC()

	var setups []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		if r, err = setup(w, seed, m); err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	out.note("setup_s repeats: %v", setups)

	var plain window
	tr := window{t: newTally(time.Now())}
	var parseUS float64
	if traced {
		plain = measure(r, w, m, length/2, nil)
		rec := newRecorder()
		r.eng.SetTraceHandler(rec)
		tr = measure(r, w, m, length/2, rec)
		r.eng.SetTraceHandler(nil)
		parseUS = timeParses(m.texts(), rec)
		tr.spans = rec.finished()
		dir := filepath.Join(".bench_build", "traces")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
			if err := rec.dump(path); err != nil {
				out.note("span dump failed: %v", err)
			} else {
				out.note("spans written to %s (%d spans)", path, len(tr.spans))
			}
		}
	} else {
		plain = measure(r, w, m, length, nil)
	}
	r.stopServing()
	var recoverTime time.Duration
	missing := 0
	if r.ing != nil {
		recoverTime, missing, err = r.ing.reopen()
		r.ing.close()
	}
	if err != nil {
		return false, err
	}
	probes = append(probes, probeHost()...)
	var probeMS []float64
	for _, p := range probes {
		probeMS = append(probeMS, ms(p))
	}

	out.probe = median(probeMS)
	out.note("host probe: median %.3f ms over %d runs (nominal %v): %v", out.probe, len(probeMS), probeNominal, probeMS)
	out.setup = median(setups)
	out.plain, out.tw = plain, tr
	out.parseUS = parseUS
	out.recover = recoverTime
	out.missing = missing
	out.groups = 1
	if w.wholeRounds {
		out.sliceSize, out.groups = len(m.classes), w.graphs
	}
	return out.print(), nil
}

// timeParses calls parser.Parse over every distinct statement text of
// the workload for at least 200 ms and returns the mean time per call
// in microseconds.
func timeParses(texts []string, rec *recorder) float64 {
	var calls int
	var total time.Duration
	for total < 200*time.Millisecond {
		for _, text := range texts {
			start := time.Now()
			_, _ = parser.Parse(text) // every text was already evaluated; only the time matters
			total += time.Since(start)
			calls++
			rec.client("parse", "", start, 0)
		}
	}
	return float64(total.Microseconds()) / float64(calls)
}
