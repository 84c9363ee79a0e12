package gcore_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcore"
	"gcore/internal/core"
)

// counters snapshots the engine's read/write dispatch counters.
func counters(t *testing.T, q gcore.Querier) (reads, writes int64) {
	t.Helper()
	m := q.Metrics()
	return m.ReadStatements, m.WriteStatements
}

// TestReadWriteClassification pins the statement classification the
// concurrency split depends on. Every hazard from the audit gets a
// regression assertion: plain EXPLAIN never executes (read), EXPLAIN
// ANALYZE really executes (classified by body), prepared statements
// classify like their source, and a script with any mutating piece
// takes the write path for all its pieces.
func TestReadWriteClassification(t *testing.T) {
	ctx := context.Background()
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}

	const read = "CONSTRUCT (n) MATCH (n:Person) ON social_graph"
	view := func(name string) string {
		return fmt.Sprintf("GRAPH VIEW %s AS (CONSTRUCT (n) MATCH (n:Person) ON social_graph)", name)
	}

	assertDelta := func(name string, dr, dw int64, run func() error) {
		t.Helper()
		r0, w0 := counters(t, eng)
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r1, w1 := counters(t, eng)
		if r1-r0 != dr || w1-w0 != dw {
			t.Fatalf("%s: reads +%d writes +%d, want +%d/+%d", name, r1-r0, w1-w0, dr, dw)
		}
	}

	assertDelta("plain read", 1, 0, func() error {
		_, err := eng.EvalContext(ctx, read)
		return err
	})
	assertDelta("view definition", 0, 1, func() error {
		_, err := eng.EvalContext(ctx, view("v_def"))
		return err
	})
	assertDelta("EXPLAIN of view is read-only", 1, 0, func() error {
		res, err := eng.EvalContext(ctx, "EXPLAIN "+view("v_explained"))
		if err != nil {
			return err
		}
		if res.Plan == "" {
			return fmt.Errorf("no plan")
		}
		return nil
	})
	if _, ok := eng.Graph("v_explained"); ok {
		t.Fatal("plain EXPLAIN registered its view — it must never execute")
	}
	assertDelta("EXPLAIN ANALYZE of view takes write path", 0, 1, func() error {
		_, err := eng.EvalContext(ctx, "EXPLAIN ANALYZE "+view("v_analyzed"))
		return err
	})
	if _, ok := eng.Graph("v_analyzed"); !ok {
		t.Fatal("EXPLAIN ANALYZE did not commit its view — it must really execute")
	}
	assertDelta("ExplainAnalyzeContext of view takes write path", 0, 1, func() error {
		_, err := eng.ExplainAnalyzeContext(ctx, view("v_analyzed2"))
		return err
	})

	assertDelta("prepared read with params", 1, 0, func() error {
		p, err := eng.Prepare("SELECT n.firstName MATCH (n:Person) ON social_graph WHERE n.employer = $emp")
		if err != nil {
			return err
		}
		_, err = p.EvalContext(ctx, map[string]gcore.Value{"emp": gcore.Str("Acme")})
		return err
	})
	assertDelta("prepared view statement takes write path", 0, 1, func() error {
		p, err := eng.Prepare(view("v_prepared"))
		if err != nil {
			return err
		}
		_, err = p.EvalContext(ctx, nil)
		return err
	})

	assertDelta("all-read script stays on read path", 2, 0, func() error {
		_, err := eng.EvalScriptContext(ctx, read+";\n"+read)
		return err
	})
	assertDelta("mixed script takes write path for every piece", 0, 3, func() error {
		_, err := eng.EvalScriptContext(ctx, read+";\n"+view("v_script")+";\n"+read)
		return err
	})

	// The syntactic classifier agrees with the dispatch behaviour.
	for _, tc := range []struct {
		src  string
		read bool
	}{
		{read, true},
		{"EXPLAIN " + read, true},
		{"EXPLAIN ANALYZE " + read, true},
		{view("v_x"), false},
		{"EXPLAIN " + view("v_x"), true},
		{"EXPLAIN ANALYZE " + view("v_x"), false},
		{"PATH knows_chain = (:Person)-[:knows]->(:Person) " + read, true},
	} {
		stmt, err := gcore.Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		if got := gcore.ReadOnly(stmt); got != tc.read {
			t.Errorf("ReadOnly(%q) = %v, want %v", tc.src, got, tc.read)
		}
	}
}

// TestSessionIsolation: per-session defaults and limits must not leak
// across sessions or into the engine.
func TestSessionIsolation(t *testing.T) {
	ctx := context.Background()
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterGraph(gcore.SampleCompanyGraph()); err != nil {
		t.Fatal(err)
	}

	s1, s2 := eng.NewSession(), eng.NewSession()
	if err := s1.SetDefaultGraph("social_graph"); err != nil {
		t.Fatal(err)
	}
	if err := s2.SetDefaultGraph("company_graph"); err != nil {
		t.Fatal(err)
	}
	r1, err := s1.EvalContext(ctx, "CONSTRUCT (n) MATCH (n:Person)")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.EvalContext(ctx, "CONSTRUCT (n) MATCH (n:Company)")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Graph.NumNodes() == 0 || r2.Graph.NumNodes() == 0 {
		t.Fatalf("session defaults not applied: %d, %d nodes", r1.Graph.NumNodes(), r2.Graph.NumNodes())
	}
	// Session defaults must not leak into the engine: the catalog
	// default is still social_graph (first registered), even though
	// s2 points at company_graph.
	re, err := eng.EvalContext(ctx, "CONSTRUCT (c) MATCH (c:Company)")
	if err != nil {
		t.Fatal(err)
	}
	if re.Graph.NumNodes() != 0 {
		t.Fatalf("engine default leaked: found %d Company nodes in social_graph", re.Graph.NumNodes())
	}

	// Session limits are admission control for that session only.
	s1.SetLimits(gcore.Limits{MaxBindings: 1})
	if _, err := s1.EvalContext(ctx, "CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person)"); err == nil {
		t.Fatal("session limit not enforced")
	}
	if _, err := s2.EvalContext(ctx, "CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person) ON social_graph"); err != nil {
		t.Fatalf("limit leaked across sessions: %v", err)
	}
	s1.ClearLimits()
	if _, err := s1.EvalContext(ctx, "CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person)"); err != nil {
		t.Fatalf("ClearLimits did not restore engine limits: %v", err)
	}
}

// TestConcurrentReadWriteTorture races N readers against a writer
// mutating the graph in atomic batches. Every reader result must be
// a consistent snapshot: the Batch-node count is always a multiple of
// the batch size (a torn read would expose a partial batch), and any
// two results observing the same generation are byte-identical.
func TestConcurrentReadWriteTorture(t *testing.T) {
	const (
		batch   = 8
		batches = 40
		readers = 8
	)
	ctx := context.Background()
	before := runtime.NumGoroutine()

	eng := gcore.NewEngine()
	g := gcore.NewGraph("torture")
	if err := eng.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	const q = "CONSTRUCT (n) MATCH (n:Batch) ON torture"

	// oracle maps observed node count -> the first marshalled result
	// at that count; later observers at the same count must match
	// byte for byte.
	var oracle sync.Map
	check := func(res *gcore.Result) error {
		n := res.Graph.NumNodes()
		if n%batch != 0 {
			return fmt.Errorf("torn read: %d nodes is not a multiple of %d", n, batch)
		}
		data, err := res.Graph.MarshalJSON()
		if err != nil {
			return err
		}
		if prev, loaded := oracle.LoadOrStore(n, data); loaded && !bytes.Equal(prev.([]byte), data) {
			return fmt.Errorf("generation %d not byte-identical across readers", n/batch)
		}
		return nil
	}

	var done atomic.Bool
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup

	// Writer: apply batches, then read back its own writes — the
	// read-back also seeds the oracle for each generation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for b := 0; b < batches; b++ {
			err := eng.MutateGraph("torture", func(g *gcore.Graph) error {
				for i := 0; i < batch; i++ {
					id := gcore.NodeID(1 + b*batch + i)
					n := &gcore.Node{ID: id, Labels: gcore.NewLabels("Batch")}
					n.Props = gcore.Properties{}
					n.Props.Set("gen", gcore.Int(int64(b)))
					if err := g.AddNode(n); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				errCh <- fmt.Errorf("writer batch %d: %w", b, err)
				return
			}
			res, err := eng.EvalContext(ctx, q)
			if err != nil {
				errCh <- fmt.Errorf("writer read-back %d: %w", b, err)
				return
			}
			if got := res.Graph.NumNodes(); got != (b+1)*batch {
				errCh <- fmt.Errorf("writer read-back %d: %d nodes, want %d", b, got, (b+1)*batch)
				return
			}
			if err := check(res); err != nil {
				errCh <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := eng.NewSession()
			if err := sess.SetDefaultGraph("torture"); err != nil {
				errCh <- err
				return
			}
			for !done.Load() {
				// Alternate entry points so the torture covers the
				// engine gateway and the session layer.
				var res *gcore.Result
				var err error
				if r%2 == 0 {
					res, err = eng.EvalContext(ctx, q)
				} else {
					res, err = sess.EvalContext(ctx, "CONSTRUCT (n) MATCH (n:Batch)")
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if err := check(res); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Final state: all batches applied exactly once.
	res, err := eng.EvalContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Graph.NumNodes(); got != batch*batches {
		t.Fatalf("final count = %d, want %d", got, batch*batches)
	}

	waitForGoroutines(t, before)
}

// TestConcurrentDurableTorture is the durable variant: the writer
// also checkpoints mid-stream, which must not disturb concurrent
// readers or tear their snapshots.
func TestConcurrentDurableTorture(t *testing.T) {
	const (
		batch   = 4
		batches = 12
		readers = 4
	)
	ctx := context.Background()
	before := runtime.NumGoroutine()

	dir := t.TempDir()
	dur, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.RegisterGraph(gcore.NewGraph("torture")); err != nil {
		t.Fatal(err)
	}
	const q = "CONSTRUCT (n) MATCH (n:Batch) ON torture"

	var done atomic.Bool
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for b := 0; b < batches; b++ {
			err := dur.MutateGraph("torture", func(g *gcore.Graph) error {
				for i := 0; i < batch; i++ {
					id := gcore.NodeID(1 + b*batch + i)
					if err := g.AddNode(&gcore.Node{ID: id, Labels: gcore.NewLabels("Batch")}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				errCh <- fmt.Errorf("writer batch %d: %w", b, err)
				return
			}
			if b%3 == 2 {
				if err := dur.Checkpoint(); err != nil {
					errCh <- fmt.Errorf("checkpoint after batch %d: %w", b, err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := dur.NewSession()
			for !done.Load() {
				res, err := sess.EvalContext(ctx, q)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if n := res.Graph.NumNodes(); n%batch != 0 {
					errCh <- fmt.Errorf("reader %d: torn read, %d nodes", r, n)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees everything the writer applied.
	dur2, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	res, err := dur2.EvalContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Graph.NumNodes(); got != batch*batches {
		t.Fatalf("recovered count = %d, want %d", got, batch*batches)
	}

	waitForGoroutines(t, before)
}

// TestScriptAtomicity: a mixed script defining two views commits
// under one writer-lock acquisition, so no concurrent reader may ever
// observe one view without the other.
func TestScriptAtomicity(t *testing.T) {
	ctx := context.Background()
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	errCh := make(chan error, 5)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				names := eng.GraphNames()
				hasA, hasB := false, false
				for _, n := range names {
					if n == "pair_a" {
						hasA = true
					}
					if n == "pair_b" {
						hasB = true
					}
				}
				if hasA != hasB {
					errCh <- fmt.Errorf("partial script visible: pair_a=%v pair_b=%v", hasA, hasB)
					return
				}
			}
		}()
	}

	script := `GRAPH VIEW pair_a AS (CONSTRUCT (n) MATCH (n:Person) ON social_graph);
GRAPH VIEW pair_b AS (CONSTRUCT (n) MATCH (n) ON pair_a)`
	if _, err := eng.EvalScriptContext(ctx, script); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	done.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if _, ok := eng.Graph("pair_b"); !ok {
		t.Fatal("pair_b missing after script")
	}
}

// TestIDAllocationInsideMutateGraph: the identifier allocators take no
// engine lock, so a MutateGraph callback — which runs under the writer
// lock — can allocate the identifiers of the elements it adds. Each
// engine gets a deadline instead of hanging the suite on a deadlock;
// the durable engine must also recover the allocated elements and
// allocate past them after reopening.
func TestIDAllocationInsideMutateGraph(t *testing.T) {
	type allocEngine interface {
		RegisterGraph(*gcore.Graph) error
		MutateGraph(string, func(*gcore.Graph) error) error
		NextNodeID() gcore.NodeID
		NextEdgeID() gcore.EdgeID
		NextPathID() gcore.PathID
	}
	addPair := func(t *testing.T, eng allocEngine) (gcore.NodeID, gcore.NodeID) {
		t.Helper()
		var a, b gcore.NodeID
		done := make(chan error, 1)
		go func() {
			done <- eng.MutateGraph("ids", func(g *gcore.Graph) error {
				a, b = eng.NextNodeID(), eng.NextNodeID()
				for _, id := range []gcore.NodeID{a, b} {
					if err := g.AddNode(&gcore.Node{ID: id, Labels: gcore.NewLabels("P")}); err != nil {
						return err
					}
				}
				eng.NextPathID()
				return g.AddEdge(&gcore.Edge{ID: eng.NextEdgeID(), Src: a, Dst: b, Labels: gcore.NewLabels("knows")})
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("allocating identifiers inside MutateGraph deadlocked")
		}
		return a, b
	}

	t.Run("engine", func(t *testing.T) {
		eng := gcore.NewEngine()
		if err := eng.RegisterGraph(gcore.NewGraph("ids")); err != nil {
			t.Fatal(err)
		}
		if a, b := addPair(t, eng); a == b {
			t.Fatalf("allocator returned %d twice", a)
		}
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		dur, err := gcore.OpenDurable(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := dur.RegisterGraph(gcore.NewGraph("ids")); err != nil {
			t.Fatal(err)
		}
		_, b := addPair(t, dur)
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := gcore.OpenDurable(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		g, ok := re.Graph("ids")
		if !ok || g.NumNodes() != 2 || g.NumEdges() != 1 {
			t.Fatalf("recovered graph lost the callback's elements: %v", g)
		}
		if id := re.NextNodeID(); id <= b {
			t.Fatalf("allocator after recovery returned %d, not past %d", id, b)
		}
	})
}

// TestAblationIsolatedPerEngine: an engine's ablation belongs to that
// engine alone. Two engines run concurrently in one process — one
// under TextualOrder and MapProps, one with the zero Ablation — and
// each EXPLAIN shows its own join order and scan direction while the
// results of both stay byte-identical.
func TestAblationIsolatedPerEngine(t *testing.T) {
	const q = `SELECT n.firstName AS a, c.name AS b
MATCH (n:Person)-[:knows]->(m:Person), (m)-[:isLocatedIn]->(c:City) ORDER BY a, b`
	setup, queries := snbQueries()
	queries = append(queries, q)
	engines := []struct {
		eng  *gcore.Engine
		plan []string
	}{
		{setup(t, gcore.WithAblation(core.Ablation{TextualOrder: true, MapProps: true})), []string{
			"join order: pattern 1 [est 60] ⋈ pattern 2 [est 311]",
			"start: left end, forward scan [est 311]",
		}},
		{setup(t), []string{
			"join order: pattern 2 [est 4] ⋈ pattern 1 [est 60]",
			"start: right end, reverse scan [est 4; forward 311]",
		}},
	}
	const rounds = 3
	results := make([][]string, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func(i int, eng *gcore.Engine, want []string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				plan, err := eng.Explain(q)
				if err != nil {
					t.Errorf("engine %d: explain: %v", i, err)
					return
				}
				for _, w := range want {
					if !strings.Contains(plan, w) {
						t.Errorf("engine %d round %d: plan lacks %q:\n%s", i, r, w, plan)
					}
				}
				for _, query := range queries {
					results[i] = append(results[i], renderResult(eng.Eval(query)))
				}
			}
		}(i, e.eng, e.plan)
	}
	wg.Wait()
	if len(results[0]) != len(results[1]) {
		t.Fatalf("engines evaluated %d and %d statements", len(results[0]), len(results[1]))
	}
	for k := range results[0] {
		if results[0][k] != results[1][k] {
			t.Fatalf("result %d diverged between the engines\nablated:\n%s\nplain:\n%s", k, results[0][k], results[1][k])
		}
	}
}
