package catalog

import (
	"strings"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/table"
	"gcore/internal/value"
)

func graph(t *testing.T, name string, ids ...ppg.NodeID) *ppg.Graph {
	t.Helper()
	g := ppg.New(name)
	for _, id := range ids {
		if err := g.AddNode(&ppg.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRegisterAndResolve(t *testing.T) {
	c := New()
	if err := c.RegisterGraph(graph(t, "g1", 5, 9)); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGraph(graph(t, "g2", 7)); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Graph("g1"); !ok || got.NumNodes() != 2 {
		t.Error("Graph lookup failed")
	}
	if _, ok := c.Graph("missing"); ok {
		t.Error("missing graph resolved")
	}
	if g, err := c.Resolve("g2"); err != nil || g.NumNodes() != 1 {
		t.Errorf("Resolve = %v, %v", g, err)
	}
	if _, err := c.Resolve("nope"); err == nil {
		t.Error("Resolve of unknown name must fail")
	}
	// First registered graph is the default.
	if c.Default() == nil || c.DefaultName() != "g1" {
		t.Errorf("default = %q", c.DefaultName())
	}
	if err := c.SetDefault("g2"); err != nil || c.DefaultName() != "g2" {
		t.Error("SetDefault failed")
	}
	if err := c.SetDefault("nope"); err == nil {
		t.Error("SetDefault of unknown graph must fail")
	}
	names := c.GraphNames()
	if strings.Join(names, ",") != "g1,g2" {
		t.Errorf("GraphNames = %v", names)
	}
	// Identifiers are reserved past registered graphs.
	if id := c.IDs().NextNode(); uint64(id) <= 9 {
		t.Errorf("generated id %d collides", id)
	}
	// Nameless graph is rejected.
	if err := c.RegisterGraph(ppg.New("")); err == nil {
		t.Error("nameless graph must be rejected")
	}
}

func TestTablesAndNameClashes(t *testing.T) {
	c := New()
	if err := c.RegisterGraph(graph(t, "g", 1)); err != nil {
		t.Fatal(err)
	}
	tb := table.New("orders", "a", "b")
	if err := tb.AddRow(value.Str("x"), value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow(value.Str("y"), value.Null); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("orders"); !ok {
		t.Error("Table lookup failed")
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "orders" {
		t.Errorf("TableNames = %v", got)
	}
	// Clashes both ways.
	if err := c.RegisterTable(table.New("g", "x")); err == nil {
		t.Error("table name clashing with graph must fail")
	}
	if err := c.RegisterGraph(graph(t, "orders", 2)); err == nil {
		t.Error("graph name clashing with table must fail")
	}
	if err := c.RegisterTable(table.New("", "x")); err == nil {
		t.Error("nameless table must fail")
	}
}

func TestTableAsGraph(t *testing.T) {
	c := New()
	tb := table.New("orders", "custName", "prodCode")
	if err := tb.AddRow(value.Str("Ada"), value.Int(1001)); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow(value.Str("Bob"), value.Null); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	g, err := c.TableAsGraph("orders")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("table graph = %v", g)
	}
	// Null cells mean absent properties.
	var nullProps int
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		if n.Props.Get("prodCode").Len() == 0 {
			nullProps++
		}
	}
	if nullProps != 1 {
		t.Errorf("rows without prodCode = %d, want 1", nullProps)
	}
	// The conversion is cached: same identities on second call.
	g2, err := c.TableAsGraph("orders")
	if err != nil || g2 != g {
		t.Error("TableAsGraph must cache")
	}
	if _, err := c.TableAsGraph("missing"); err == nil {
		t.Error("unknown table must fail")
	}
	// Resolve falls through to tables.
	if rg, err := c.Resolve("orders"); err != nil || rg != g {
		t.Error("Resolve should find the table graph")
	}
}

func TestBindingTable(t *testing.T) {
	c := New()
	tb := table.New("t", "x", "y")
	if err := tb.AddRow(value.Int(1), value.Null); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := c.BindingTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "x" || cols[1] != "y" || len(rows) != 1 {
		t.Fatalf("binding table = %v, %v", cols, rows)
	}
	if !value.Equal(rows[0][0], value.Int(1)) || !rows[0][1].IsNull() {
		t.Errorf("row = %v, want positional [1 NULL]", rows[0])
	}
	if _, _, err := c.BindingTable("missing"); err == nil {
		t.Error("unknown binding table must fail")
	}
}
