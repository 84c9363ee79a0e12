package main

import (
	"encoding/json"
	"strings"
	"testing"

	"gcore"
)

// serve starts the service over the paper's social graph and returns
// a client plus the reference digest of text, computed through the
// Session API exactly as a workload's reference is.
func serve(t *testing.T, text string) (*clientState, []byte, string) {
	t.Helper()
	eng := gcore.NewEngine(gcore.WithParallelism(1))
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	m := &mix{graph: "social_graph", classes: []*class{{name: "q", slots: 1, pool: []instance{{text: text}}}}}
	if err := m.reference(eng); err != nil {
		t.Fatal(err)
	}
	svc, err := startService(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.stop)
	cs, err := newClientState(svc.url, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.c.close)
	body, err := cs.c.query(cs.sessions["social_graph"], text)
	if err != nil {
		t.Fatal(err)
	}
	return cs, append([]byte(nil), body...), m.classes[0].pool[0].want
}

// edit decodes a response body, applies fn to its first result and
// re-encodes it.
func edit(t *testing.T, body []byte, fn func(res map[string]any)) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	fn(doc["results"].([]any)[0].(map[string]any))
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckCatchesCorruptGraph(t *testing.T) {
	cs, body, want := serve(t, "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person)")
	if err := cs.verify(body, want); err != nil {
		t.Fatalf("untouched response rejected: %v", err)
	}

	// Renumbering every identifier consistently keeps the digest: the
	// check must not depend on skolem identifiers.
	renumbered := edit(t, body, func(res map[string]any) {
		g := res["graph"].(map[string]any)
		for _, kind := range []string{"nodes", "edges"} {
			for _, el := range g[kind].([]any) {
				el := el.(map[string]any)
				for _, k := range []string{"id", "src", "dst"} {
					if v, ok := el[k].(float64); ok {
						el[k] = v + 1000
					}
				}
			}
		}
	})
	if err := cs.verify(renumbered, want); err != nil {
		t.Fatalf("renumbered response rejected: %v", err)
	}

	corruptions := map[string]func(res map[string]any){
		"property changed": func(res map[string]any) {
			n := res["graph"].(map[string]any)["nodes"].([]any)[0].(map[string]any)
			n["properties"].(map[string]any)["firstName"] = "Mallory"
		},
		"node dropped": func(res map[string]any) {
			g := res["graph"].(map[string]any)
			g["nodes"] = g["nodes"].([]any)[1:]
		},
		"label changed": func(res map[string]any) {
			e := res["graph"].(map[string]any)["edges"].([]any)[0].(map[string]any)
			e["labels"] = []any{"hates"}
		},
		"edge rewired": func(res map[string]any) {
			e := res["graph"].(map[string]any)["edges"].([]any)[0].(map[string]any)
			e["dst"] = e["src"]
		},
	}
	for name, fn := range corruptions {
		if err := cs.verify(edit(t, body, fn), want); err == nil || !strings.Contains(err.Error(), "wrong output") {
			t.Errorf("%s: corrupted response accepted (err %v)", name, err)
		}
	}
}

func TestCheckCatchesCorruptTable(t *testing.T) {
	cs, body, want := serve(t, "SELECT n.firstName AS name, n.employer AS emp MATCH (n:Person)")
	if err := cs.verify(body, want); err != nil {
		t.Fatalf("untouched response rejected: %v", err)
	}
	reordered := edit(t, body, func(res map[string]any) {
		rows := res["table"].(map[string]any)["rows"].([]any)
		rows[0], rows[len(rows)-1] = rows[len(rows)-1], rows[0]
	})
	if err := cs.verify(reordered, want); err != nil {
		t.Fatalf("reordered rows rejected: %v", err)
	}
	for name, fn := range map[string]func(res map[string]any){
		"cell changed": func(res map[string]any) {
			res["table"].(map[string]any)["rows"].([]any)[0].([]any)[0] = "Mallory"
		},
		"row dropped": func(res map[string]any) {
			tb := res["table"].(map[string]any)
			tb["rows"] = tb["rows"].([]any)[1:]
		},
		"no result": func(res map[string]any) {
			delete(res, "table")
		},
	} {
		if err := cs.verify(edit(t, body, fn), want); err == nil {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
}
