// Command benchguard compares two `go test -bench` output files and
// guards the hot-path benchmarks against regressions. Allocation
// counts and bytes are deterministic across machines, so an allocs/op
// or B/op increase beyond the threshold on a guarded benchmark fails
// the run (exit 1); ns/op is timing- and machine-dependent, so a time
// regression only warns. A benchmark whose baseline runs disagree in
// B/op by more than the threshold cannot resolve such a regression;
// its B/op check warns instead, and the report says so. Benchmarks
// present in the baseline but missing from the head run also warn, so
// silently dropping a guarded benchmark is visible.
//
// Usage:
//
//	make benchguard  # runs and guards BENCH_GUARD from the Makefile, or by hand:
//	go test -bench 'BenchmarkJoin|BenchmarkParallelMatch' -benchmem -cpu 1 -run '^$' . ./internal/bindings | tee bench.head.txt
//	go run ./cmd/benchguard -base bench.base.txt -head bench.head.txt -guard 'BenchmarkJoin|BenchmarkParallelMatch'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	base := flag.String("base", "bench.base.txt", "baseline `go test -bench` output")
	head := flag.String("head", "bench.head.txt", "head `go test -bench` output")
	guard := flag.String("guard", "", "guarded benchmark name prefixes separated by |, as in a go test -bench alternation")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional regression (0.20 = 20%)")
	flag.Parse()
	if *guard == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -guard is required (make benchguard passes BENCH_GUARD)")
		os.Exit(2)
	}

	baseRecs, err := loadBench(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	headRecs, err := loadBench(*head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	report := compare(baseRecs, headRecs, strings.Split(*guard, "|"), *threshold)
	for _, line := range report.lines {
		fmt.Println(line)
	}
	if len(report.failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d allocation regression(s) beyond %.0f%%\n",
			len(report.failures), *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d guarded benchmark(s) within the %.0f%% budget\n",
		report.checked, *threshold*100)
}
