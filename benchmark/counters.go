package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gcore"
)

// snapshot is every counter the benchmark reads from outside the
// program, taken at the edges of a measured window: the engine's
// Metrics() (which on a durable engine includes the WAL counters that
// WALStats() reports), the Go heap statistics and the process CPU
// time.
type snapshot struct {
	at  time.Time
	m   gcore.Metrics
	mem runtime.MemStats
	cpu time.Duration
	// host is the machine-wide CPU time split from /proc/stat (zero
	// where it cannot be read): steal is time the hypervisor gave this
	// machine's CPUs to other guests, which slows every wall-clock
	// metric without showing in the process's own CPU time.
	host hostCPU
}

type hostCPU struct{ total, steal int64 }

func takeSnapshot(metricsOf func() gcore.Metrics) snapshot {
	s := snapshot{at: time.Now(), m: metricsOf(), host: readHostCPU()}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// readHostCPU parses the aggregate "cpu" line of /proc/stat.
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// opDelta is one operator's totals over a window.
type opDelta struct {
	count, rowsOut, pops int64
	elapsed              time.Duration
}

// delta is the difference between two snapshots.
type delta struct {
	wall        time.Duration
	cpu         time.Duration
	stealShare  float64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	readStmts   int64
	writeStmts  int64
	planHits    int64
	planMisses  int64
	planEvicts  int64
	planCompile time.Duration
	csrReuses   int64
	csrBuilds   int64
	snapFull    int64
	snapDeltas  int64
	snapFalls   int64
	snapOps     int64
	snapCopied  int64
	walAppends  int64
	walBytes    int64
	walBatched  int64
	walSyncs    int64
	walCkpts    int64
	ops         map[string]opDelta
}

func diff(a, b snapshot) delta {
	d := delta{
		wall:        b.at.Sub(a.at),
		cpu:         b.cpu - a.cpu,
		stealShare:  ratio(b.host.steal-a.host.steal, b.host.total-a.host.total),
		allocBytes:  b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcCycles:    b.mem.NumGC - a.mem.NumGC,
		gcPause:     time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs),
		readStmts:   b.m.ReadStatements - a.m.ReadStatements,
		writeStmts:  b.m.WriteStatements - a.m.WriteStatements,
		planHits:    b.m.PlanCacheHits - a.m.PlanCacheHits,
		planMisses:  b.m.PlanCacheMisses - a.m.PlanCacheMisses,
		planEvicts:  b.m.PlanCacheEvictions - a.m.PlanCacheEvictions,
		planCompile: time.Duration(b.m.PlanCacheCompileNS - a.m.PlanCacheCompileNS),
		csrReuses:   b.m.CSRReuses - a.m.CSRReuses,
		csrBuilds:   b.m.CSRBuilds - a.m.CSRBuilds,
		snapFull:    b.m.SnapshotFullBuilds - a.m.SnapshotFullBuilds,
		snapDeltas:  b.m.SnapshotDeltaApplies - a.m.SnapshotDeltaApplies,
		snapFalls:   b.m.SnapshotFallbacks - a.m.SnapshotFallbacks,
		snapOps:     b.m.SnapshotDeltaOps - a.m.SnapshotDeltaOps,
		snapCopied:  b.m.SnapshotBytesCopied - a.m.SnapshotBytesCopied,
		walAppends:  b.m.WALAppends - a.m.WALAppends,
		walBytes:    b.m.WALAppendedBytes - a.m.WALAppendedBytes,
		walBatched:  b.m.WALBatched - a.m.WALBatched,
		walSyncs:    b.m.WALSyncs - a.m.WALSyncs,
		walCkpts:    b.m.WALCheckpoints - a.m.WALCheckpoints,
		ops:         map[string]opDelta{},
	}
	for name, ob := range b.m.Operators {
		oa := a.m.Operators[name]
		d.ops[name] = opDelta{
			count:   ob.Count - oa.Count,
			rowsOut: ob.RowsOut - oa.RowsOut,
			pops:    ob.Pops - oa.Pops,
			elapsed: time.Duration(ob.ElapsedNS - oa.ElapsedNS),
		}
	}
	return d
}

// heapSampler tracks the peak live-heap size during a window by
// polling runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}
