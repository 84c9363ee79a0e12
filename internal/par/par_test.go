package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"gcore/internal/gov"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got < 1 {
		t.Fatalf("Workers(-2) = %d, want >= 1", got)
	}
}

// TestMapChunksOrder: concatenating chunk results in returned order
// must reproduce the sequential order, for every worker count.
func TestMapChunksOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			parts, err := MapChunks(context.Background(), n, workers, func(lo, hi int) ([]int, error) {
				out := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					out = append(out, i*i)
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var flat []int
			for _, p := range parts {
				flat = append(flat, p...)
			}
			if len(flat) != n {
				t.Fatalf("workers=%d n=%d: got %d items", workers, n, len(flat))
			}
			for i, v := range flat {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: item %d = %d, want %d", workers, n, i, v, i*i)
				}
			}
		}
	}
}

// TestMapChunksError: the error of the chunk containing the smallest
// failing index is the one reported, matching what a sequential left-
// to-right loop would surface first.
func TestMapChunksError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapChunks(context.Background(), 100, workers, func(lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				if i >= 20 {
					return 0, fmt.Errorf("err@%d", i)
				}
			}
			return 0, nil
		})
		if err == nil || err.Error() != "err@20" {
			t.Fatalf("workers=%d: err = %v, want err@20", workers, err)
		}
	}
}

func TestForEachIdx(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		n := 200
		hits := make([]int32, n)
		err := ForEachIdx(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachIdxError(t *testing.T) {
	err := ForEachIdx(context.Background(), 100, 8, func(i int) error {
		if i >= 70 {
			return fmt.Errorf("late %d", i)
		}
		if i >= 30 {
			return errors.New("first")
		}
		return nil
	})
	if err == nil || err.Error() != "first" {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
}

// TestMapChunksCanceledContext: an already-cancelled context stops
// dispatch and surfaces a typed KindCanceled error; no chunk runs.
func TestMapChunksCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := MapChunks(ctx, 1000, 8, func(lo, hi int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	qe, ok := gov.AsQueryError(err)
	if !ok || qe.Kind != gov.KindCanceled {
		t.Fatalf("err = %v, want KindCanceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d chunks ran under a dead context", ran.Load())
	}
}

// TestMapChunksCancelMidFlight: cancellation raised from inside a
// chunk stops the remaining dispatch. Every chunk after the first
// blocks until the cancel lands, so no worker can finish a chunk
// before it: each of the 4 workers runs at most the one chunk it had
// claimed, whatever the scheduling.
func TestMapChunksCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	_, err := MapChunks(ctx, 10_000, 4, func(lo, hi int) (int, error) {
		if ran.Add(1) == 1 {
			cancel()
		}
		<-ctx.Done()
		return 0, nil
	})
	if _, ok := gov.AsQueryError(err); !ok {
		t.Fatalf("err = %v, want a typed QueryError", err)
	}
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d of %d chunks ran despite cancellation, want at most 4 (one per worker)", got, chunkCount(10_000, 4))
	}
}

// TestMapChunksPanicContained: a panicking chunk surfaces as a
// KindInternal error instead of crashing the process.
func TestMapChunksPanicContained(t *testing.T) {
	_, err := MapChunks(context.Background(), 100, 4, func(lo, hi int) (int, error) {
		if lo == 0 {
			panic("chunk boom")
		}
		return 0, nil
	})
	qe, ok := gov.AsQueryError(err)
	if !ok || qe.Kind != gov.KindInternal {
		t.Fatalf("err = %v, want KindInternal", err)
	}
	if !strings.Contains(qe.Msg, "chunk boom") {
		t.Fatalf("panic message lost: %q", qe.Msg)
	}
}

// TestForEachIdxPanicContained: same containment for the index pool.
func TestForEachIdxPanicContained(t *testing.T) {
	err := ForEachIdx(context.Background(), 50, 4, func(i int) error {
		if i == 7 {
			panic(fmt.Sprintf("idx %d boom", i))
		}
		return nil
	})
	qe, ok := gov.AsQueryError(err)
	if !ok || qe.Kind != gov.KindInternal {
		t.Fatalf("err = %v, want KindInternal", err)
	}
}

// TestForEachIdxCanceled: dispatch stops and the cancellation is
// surfaced even when every dispatched index succeeded.
func TestForEachIdxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachIdx(ctx, 100, 8, func(i int) error { return nil })
	qe, ok := gov.AsQueryError(err)
	if !ok || qe.Kind != gov.KindCanceled {
		t.Fatalf("err = %v, want KindCanceled", err)
	}
}
