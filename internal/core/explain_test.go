package core_test

import (
	"strings"
	"testing"

	"gcore/internal/core"
	"gcore/internal/parser"
)

func explain(t *testing.T, ev *core.Evaluator, src string) string {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := ev.Explain(stmt)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	return plan
}

func TestExplainShowsPushdown(t *testing.T) {
	ev := newToy(t)
	plan := explain(t, ev, `CONSTRUCT (n)-/@p:sp/->(m)
MATCH (n:Person)-/p<:knows*>/->(m:Person)
WHERE n.firstName = 'John' AND m.employer = 'HAL' AND EXISTS (CONSTRUCT () MATCH (n)-[:knows]->(m))`)
	// The n-filter lands on the scan, before the path search.
	scanIdx := strings.Index(plan, "node scan (n")
	filterIdx := strings.Index(plan, "n.firstName = 'John'")
	searchIdx := strings.Index(plan, "shortest-path search")
	if scanIdx < 0 || filterIdx < 0 || searchIdx < 0 {
		t.Fatalf("plan missing steps:\n%s", plan)
	}
	if !(scanIdx < filterIdx && filterIdx < searchIdx) {
		t.Errorf("n-filter not pushed before the path search:\n%s", plan)
	}
	// The EXISTS conjunct stays in the residual filter.
	if !strings.Contains(plan, "residual filter") || !strings.Contains(plan, "[subquery]") {
		t.Errorf("subquery conjunct not residual:\n%s", plan)
	}
}

func TestExplainStrategies(t *testing.T) {
	ev := newToy(t)
	cases := map[string]string{
		`CONSTRUCT (m) MATCH (n)-/<:knows*>/->(m)`:                         "reachability BFS",
		`CONSTRUCT (n)-/@p:x/->(m) MATCH (n)-/3 SHORTEST p<:knows*>/->(m)`: "3-shortest search",
		`CONSTRUCT (n)-/p/->(m) MATCH (n)-/ALL p<:knows*>/->(m)`:           "ALL-paths projection",
		`CONSTRUCT (n) MATCH (n)-/@p:toWagner/->(m)`:                       "stored-path scan",
		`CONSTRUCT (n) MATCH (n)-/@p<:knows*>/->(m)`:                       "conformance check",
		`PATH w = (x)-[e:knows]->(y) COST 1 / (1 + e.k)
CONSTRUCT (n)-/@p:x/->(m) MATCH (n)-/p<~w*>/->(m)`: "Dijkstra over PATH-view segments",
	}
	for src, want := range cases {
		plan := explain(t, ev, src)
		if !strings.Contains(plan, want) {
			t.Errorf("plan for %q missing %q:\n%s", src, want, plan)
		}
	}
}

func TestExplainConstructAndHeads(t *testing.T) {
	ev := newToy(t)
	plan := explain(t, ev, `GRAPH VIEW v AS (
CONSTRUCT social_graph, (x GROUP e :Company {name:=e})<-[y:worksAt]-(n)
MATCH (n:Person {employer=e})
OPTIONAL (n)-[:knows]->(f) WHERE (f:Person))
SELECT n.firstName AS a MATCH (n) ON v ORDER BY a LIMIT 2`)
	for _, want := range []string{
		"GRAPH VIEW (registered in the catalog) v",
		"graph union with social_graph",
		"[GROUP e]",
		"[grouped by endpoints]",
		"left-outer-join OPTIONAL block 1",
		"SELECT 1 column(s), ORDER BY 1 key(s), LIMIT 2",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainSetOpsAndFrom(t *testing.T) {
	ev := newToy(t)
	plan := explain(t, ev, `CONSTRUCT (n) MATCH (n:A) UNION CONSTRUCT (m) FROM orders`)
	for _, want := range []string{"GRAPH UNION", "FROM orders", "by identity if bound, else per binding"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// A construct variable missing from the match schema is a skolem.
	plan = explain(t, ev, `CONSTRUCT (x :T) MATCH (n:Person)`)
	if !strings.Contains(plan, "per binding (skolem)") {
		t.Errorf("plan missing skolem label:\n%s", plan)
	}
	plan = explain(t, ev, `CONSTRUCT (x :T {v := COUNT(*)}) WHEN x.v > 1 MATCH (n:Person)`)
	if !strings.Contains(plan, "WHEN") {
		t.Errorf("plan missing WHEN:\n%s", plan)
	}
	// Pure construction over unit bindings.
	plan = explain(t, ev, `CONSTRUCT (x :Singleton)`)
	if !strings.Contains(plan, "unit bindings") {
		t.Errorf("plan missing unit bindings:\n%s", plan)
	}
	// Invalid statements fail analysis.
	stmt, err := parser.Parse(`CONSTRUCT (n) MATCH (n)-[n]->(m)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Explain(stmt); err == nil {
		t.Error("explain must reject invalid statements")
	}
}

// TestExplainMarksCrossProduct: a fold step whose pattern shares no
// variable with the patterns folded before it is a cross product;
// EXPLAIN prints × for it and flags the line. Connected folds keep ⋈
// and no flag — the connected-first join order never makes one a
// cross product, whatever the estimates (the L39 OPTIONAL block's
// cheapest patterns 1 and 3 share no variable) — and among the
// paper's queries exactly the disconnected MATCHes carry the marker.
func TestExplainMarksCrossProduct(t *testing.T) {
	ev := newToy(t)
	plan := explain(t, ev, `CONSTRUCT (a) MATCH (a:Person), (b:Tag)`)
	if !strings.Contains(plan, "join order: pattern 2 [est 1] × pattern 1 [est 5] (cross product)") {
		t.Errorf("disconnected MATCH not marked:\n%s", plan)
	}
	for _, src := range []string{
		`CONSTRUCT (a) MATCH (a:Person)-[:knows]->(b:Person), (b)-[:hasInterest]->(t:Tag)`,
		`CONSTRUCT (a) MATCH (t:Tag), (a:Person)-[:hasInterest]->(t), (a)-[:knows]->(b)`,
		`CONSTRUCT (n) MATCH (n:Person) OPTIONAL (n)-[:knows]->(m), (m)-[:hasInterest]->(t)`,
		`CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person)
		 OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), (msg2:Post|Comment)-[c2]->(m)
		 WHERE (c1:has_creator) AND (c2:has_creator)`,
	} {
		plan := explain(t, ev, src)
		if !strings.Contains(plan, "join order:") || strings.Contains(plan, "×") || strings.Contains(plan, "cross product") {
			t.Errorf("connected fold marked as a cross product:\n%s\n%s", src, plan)
		}
	}
	want := map[string]bool{"L05": true, "L10": true, "L15": true, "L36": true, "L67": true}
	for key, src := range parser.PaperQueries {
		stmt, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", key, err)
		}
		plan, err := ev.Explain(stmt)
		if err != nil {
			if want[key] {
				t.Fatalf("%s: explain: %v", key, err)
			}
			continue // statements over graphs the toy catalog lacks
		}
		if got := strings.Contains(plan, "(cross product)"); got != want[key] {
			t.Errorf("%s: cross-product marker = %v, want %v\n%s", key, got, want[key], plan)
		}
	}
}
