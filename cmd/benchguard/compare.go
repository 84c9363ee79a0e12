package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is the averaged measurements of one benchmark across the
// repeated -count runs of a file; minBytes and maxBytes are the
// extremes of B/op over those runs.
type metric struct {
	ns       float64
	bytes    float64
	allocs   float64
	minBytes float64
	maxBytes float64
	hasMem   bool
	n        int
}

// stripProcSuffix removes the trailing "-<GOMAXPROCS>" go test
// appends to benchmark names, so files from machines with different
// core counts compare by the logical benchmark name. At GOMAXPROCS=1
// go test appends nothing, so parseBench strips only a suffix that
// every benchmark of a package block shares.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// procSuffix returns the "-<digits>" stripProcSuffix would remove.
func procSuffix(name string) string {
	return name[len(stripProcSuffix(name)):]
}

// parseBenchLine decodes one `BenchmarkX-8 N 12.3 ns/op 4 B/op
// 2 allocs/op` line, keeping the name as printed; ok is false for
// headers, PASS, ok … lines.
func parseBenchLine(line string) (name string, m metric, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", metric{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", metric{}, false
	}
	m.n = 1
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", metric{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.ns = v
			seen = true
		case "B/op":
			m.bytes = v
		case "allocs/op":
			m.allocs = v
			m.hasMem = true
		}
	}
	return fields[0], m, seen
}

// parseBench averages the repeated runs of each benchmark in one
// `go test -bench` output stream. A name's trailing "-N" is the
// GOMAXPROCS suffix only when every benchmark line of its package
// block (from one "pkg:" header to the next) ends in the same "-N";
// otherwise it belongs to the name, like BenchmarkConcurrentRead's
// readers-1 … readers-8 sub-benchmarks at -cpu 1.
func parseBench(lines []string) map[string]metric {
	type run struct {
		name string
		m    metric
	}
	out := map[string]metric{}
	var block []run
	flush := func() {
		suffix := ""
		if len(block) > 0 {
			suffix = procSuffix(block[0].name)
		}
		for _, r := range block {
			if procSuffix(r.name) != suffix {
				suffix = ""
				break
			}
		}
		for _, r := range block {
			name, m := strings.TrimSuffix(r.name, suffix), r.m
			acc, seen := out[name]
			if !seen || m.bytes < acc.minBytes {
				acc.minBytes = m.bytes
			}
			acc.maxBytes = max(acc.maxBytes, m.bytes)
			acc.ns += m.ns
			acc.bytes += m.bytes
			acc.allocs += m.allocs
			acc.hasMem = acc.hasMem || m.hasMem
			acc.n += m.n
			out[name] = acc
		}
		block = block[:0]
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "pkg:") {
			flush()
			continue
		}
		if name, m, ok := parseBenchLine(line); ok {
			block = append(block, run{name, m})
		}
	}
	flush()
	for name, acc := range out {
		acc.ns /= float64(acc.n)
		acc.bytes /= float64(acc.n)
		acc.allocs /= float64(acc.n)
		out[name] = acc
	}
	return out
}

func loadBench(path string) (map[string]metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	recs := parseBench(lines)
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return recs, nil
}

// result is the outcome of one guard comparison.
type result struct {
	lines    []string
	failures []string
	checked  int
}

func guarded(name string, prefixes []string) bool {
	for _, p := range prefixes {
		p = strings.TrimSpace(p)
		if p != "" && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// compare checks every guarded head benchmark against the baseline:
// allocs/op or B/op beyond the threshold is a failure, ns/op beyond it
// a warning, and guarded baseline benchmarks missing from the head run
// warn as lost coverage. A benchmark whose own baseline runs spread
// wider than the threshold in B/op (max/min) cannot resolve a
// regression of that size, so its B/op check only warns, saying why.
func compare(base, head map[string]metric, prefixes []string, threshold float64) result {
	var res result
	names := make([]string, 0, len(head))
	for name := range head {
		if guarded(name, prefixes) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := head[name]
		b, ok := base[name]
		if !ok {
			res.lines = append(res.lines, fmt.Sprintf("WARN  %s: no baseline entry", name))
			continue
		}
		res.checked++
		failed := false
		if b.hasMem && h.hasMem && b.allocs > 0 {
			ratio := h.allocs / b.allocs
			verdict := "ok  "
			if ratio > 1+threshold {
				verdict = "FAIL"
				failed = true
			}
			res.lines = append(res.lines, fmt.Sprintf("%s  %s: allocs/op %.1f → %.1f (%+.1f%%)",
				verdict, name, b.allocs, h.allocs, (ratio-1)*100))
		}
		if b.hasMem && h.hasMem && b.bytes > 0 {
			ratio := h.bytes / b.bytes
			spread := b.maxBytes / b.minBytes
			verdict, note := "ok  ", ""
			if spread > 1+threshold {
				note = fmt.Sprintf(" — baseline B/op spread ×%.2f over %d runs exceeds the budget, warn only", spread, b.n)
			}
			if ratio > 1+threshold {
				if note != "" {
					verdict = "WARN"
				} else {
					verdict = "FAIL"
					failed = true
				}
			}
			res.lines = append(res.lines, fmt.Sprintf("%s  %s: B/op %.0f → %.0f (%+.1f%%)%s",
				verdict, name, b.bytes, h.bytes, (ratio-1)*100, note))
		}
		if failed {
			res.failures = append(res.failures, name)
		}
		if b.ns > 0 {
			ratio := h.ns / b.ns
			if ratio > 1+threshold {
				res.lines = append(res.lines, fmt.Sprintf("WARN  %s: ns/op %.0f → %.0f (%+.1f%%) — timing only, not fatal",
					name, b.ns, h.ns, (ratio-1)*100))
			}
		}
	}
	for name := range base {
		if guarded(name, prefixes) {
			if _, ok := head[name]; !ok {
				res.lines = append(res.lines, fmt.Sprintf("WARN  %s: guarded baseline benchmark missing from head run", name))
			}
		}
	}
	sort.Strings(res.lines)
	return res
}
