package main

import (
	"strings"
	"testing"
)

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkJoin/rows=100-8": "BenchmarkJoin/rows=100",
		"BenchmarkJoin/rows=100":   "BenchmarkJoin/rows=100",
		"BenchmarkX-foo":           "BenchmarkX-foo",
		"BenchmarkParse-16":        "BenchmarkParse",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchAverages(t *testing.T) {
	recs := parseBench([]string{
		"goos: linux",
		"BenchmarkJoin/rows=100-8   100   1000 ns/op   512 B/op   10 allocs/op",
		"BenchmarkJoin/rows=100-8   100   3000 ns/op   512 B/op   20 allocs/op",
		"PASS",
	})
	m, ok := recs["BenchmarkJoin/rows=100"]
	if !ok || m.n != 2 {
		t.Fatalf("records = %v", recs)
	}
	if m.ns != 2000 || m.bytes != 512 || m.allocs != 15 || !m.hasMem {
		t.Errorf("averaged metric = %+v", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := parseBench([]string{
		"BenchmarkJoin/rows=100-8      100  1000 ns/op  512 B/op  100 allocs/op",
		"BenchmarkParallelMatch-8      100  1000 ns/op  512 B/op  100 allocs/op",
		"BenchmarkGroupBy-8            100  1000 ns/op  512 B/op  100 allocs/op",
		"BenchmarkDropped-8            100  1000 ns/op  512 B/op  100 allocs/op",
	})
	head := parseBench([]string{
		// 50% more allocations: fails.
		"BenchmarkJoin/rows=100-4      100  1000 ns/op  512 B/op  150 allocs/op",
		// Allocs fine, 2x slower: warns only.
		"BenchmarkParallelMatch-4      100  2000 ns/op  512 B/op  105 allocs/op",
		// Unguarded: ignored even though it regressed.
		"BenchmarkGroupBy-4            100  9000 ns/op  512 B/op  900 allocs/op",
	})
	guard := []string{"BenchmarkJoin", "BenchmarkParallelMatch", "BenchmarkDropped"}
	res := compare(base, head, guard, 0.20)
	if len(res.failures) != 1 || res.failures[0] != "BenchmarkJoin/rows=100" {
		t.Fatalf("failures = %v", res.failures)
	}
	if res.checked != 2 {
		t.Errorf("checked = %d, want 2", res.checked)
	}
	report := strings.Join(res.lines, "\n")
	if !strings.Contains(report, "FAIL  BenchmarkJoin/rows=100") {
		t.Errorf("missing FAIL line:\n%s", report)
	}
	if !strings.Contains(report, "WARN  BenchmarkParallelMatch: ns/op") {
		t.Errorf("missing timing warning:\n%s", report)
	}
	if !strings.Contains(report, "WARN  BenchmarkDropped: guarded baseline benchmark missing") {
		t.Errorf("missing lost-coverage warning:\n%s", report)
	}
	if strings.Contains(report, "BenchmarkGroupBy") {
		t.Errorf("unguarded benchmark leaked into report:\n%s", report)
	}
	// Within budget: no failures.
	res = compare(base, head, []string{"BenchmarkParallelMatch"}, 0.20)
	if len(res.failures) != 0 || res.checked != 1 {
		t.Fatalf("clean guard: failures=%v checked=%d", res.failures, res.checked)
	}
}

func TestCompareBytesPerOp(t *testing.T) {
	base := parseBench([]string{
		"BenchmarkConstruct/persons=200-8  10  1000 ns/op  16000000 B/op  32000 allocs/op",
		"BenchmarkConstruct/persons=200-8  10  1000 ns/op  16100000 B/op  32000 allocs/op",
		// Baseline B/op spreads ×1.75 across its own runs.
		"BenchmarkNoisy-8                 100  1000 ns/op    118000 B/op    100 allocs/op",
		"BenchmarkNoisy-8                 100  1000 ns/op    206500 B/op    100 allocs/op",
	})
	if m := base["BenchmarkNoisy"]; m.minBytes != 118000 || m.maxBytes != 206500 || m.bytes != 162250 {
		t.Fatalf("B/op extremes = %+v", m)
	}
	head := parseBench([]string{
		// Same allocation count, 125× the bytes: the cross-product
		// shape allocs/op alone cannot see.
		"BenchmarkConstruct/persons=200-4  1  1000 ns/op  2020000000 B/op  31000 allocs/op",
		"BenchmarkNoisy-4                 100  1000 ns/op    300000 B/op    100 allocs/op",
	})
	res := compare(base, head, []string{"BenchmarkConstruct", "BenchmarkNoisy"}, 0.20)
	report := strings.Join(res.lines, "\n")
	if len(res.failures) != 1 || res.failures[0] != "BenchmarkConstruct/persons=200" {
		t.Fatalf("failures = %v\n%s", res.failures, report)
	}
	if !strings.Contains(report, "FAIL  BenchmarkConstruct/persons=200: B/op") {
		t.Errorf("missing B/op FAIL line:\n%s", report)
	}
	if !strings.Contains(report, "ok    BenchmarkConstruct/persons=200: allocs/op") {
		t.Errorf("allocs/op within budget must stay ok:\n%s", report)
	}
	// The noisy benchmark regressed beyond 20% in B/op, but its own
	// baseline cannot resolve 20%: warn, and say why.
	if !strings.Contains(report, "WARN  BenchmarkNoisy: B/op 162250 → 300000 (+84.9%) — baseline B/op spread ×1.75 over 2 runs exceeds the budget, warn only") {
		t.Errorf("missing spread exemption warning:\n%s", report)
	}
	// A tight baseline within budget stays ok.
	head = parseBench([]string{
		"BenchmarkConstruct/persons=200-4  10  1000 ns/op  17000000 B/op  32000 allocs/op",
	})
	res = compare(base, head, []string{"BenchmarkConstruct"}, 0.20)
	if len(res.failures) != 0 || !strings.Contains(strings.Join(res.lines, "\n"), "ok    BenchmarkConstruct/persons=200: B/op") {
		t.Errorf("within budget: failures=%v\n%s", res.failures, strings.Join(res.lines, "\n"))
	}
}

// TestParseBenchProcSuffix: go test appends "-<GOMAXPROCS>" to every
// name of a package's output, except at GOMAXPROCS=1, where a
// trailing "-N" belongs to the sub-benchmark's own name.
func TestParseBenchProcSuffix(t *testing.T) {
	recs := parseBench([]string{
		"pkg: gcore",
		"BenchmarkConcurrentRead/readers-1   100  1000 ns/op  105000 B/op  400 allocs/op",
		"BenchmarkConcurrentRead/readers-2   100  1000 ns/op  118000 B/op  400 allocs/op",
		"pkg: gcore",
		"BenchmarkConcurrentRead/readers-1-4 100  1000 ns/op  107000 B/op  400 allocs/op",
		"BenchmarkJoin/rows=100-4            100  1000 ns/op     512 B/op   10 allocs/op",
		"pkg: gcore/internal/wal",
		"BenchmarkWALAppend                  100  1000 ns/op     144 B/op    1 allocs/op",
	})
	for name, n := range map[string]int{
		"BenchmarkConcurrentRead/readers-1": 2,
		"BenchmarkConcurrentRead/readers-2": 1,
		"BenchmarkJoin/rows=100":            1,
		"BenchmarkWALAppend":                1,
	} {
		if recs[name].n != n {
			t.Errorf("%s: %d runs, want %d (records %v)", name, recs[name].n, n, recs)
		}
	}
	if len(recs) != 4 {
		t.Errorf("records = %v", recs)
	}
}
