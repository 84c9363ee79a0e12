package bindings

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gcore/internal/value"
)

// mrow is a binding µ written as a map: the test-local reference form
// the slot tables are checked against. A missing key is an unbound
// variable.
type mrow map[string]value.Value

func row(kv ...any) mrow {
	b := mrow{}
	for i := 0; i < len(kv); i += 2 {
		b[kv[i].(string)] = kv[i+1].(value.Value)
	}
	return b
}

// tableOf builds a table over vars from map rows; variables outside
// the schema are dropped.
func tableOf(vars []string, rows ...mrow) *Table {
	t := EmptyTable(vars...)
	dst := make([]value.Value, t.Width())
	for _, b := range rows {
		for s, v := range t.Vars() {
			if val, ok := b[v]; ok {
				dst[s] = val
			} else {
				dst[s] = value.Absent
			}
		}
		t.AppendRow(dst)
	}
	return t
}

// rowOf reads row i back as a map row.
func rowOf(t *Table, i int) mrow {
	b := mrow{}
	for s, v := range t.RowAt(i) {
		if !v.IsAbsent() {
			b[t.Vars()[s]] = v
		}
	}
	return b
}

func rowsOf(t *Table) []mrow {
	out := make([]mrow, t.Len())
	for i := range out {
		out[i] = rowOf(t, i)
	}
	return out
}

// compatible is µ1 ∼ µ2: agreement on every shared variable.
func compatible(a, b mrow) bool {
	for k, va := range a {
		if vb, ok := b[k]; ok && !value.Equal(va, vb) {
			return false
		}
	}
	return true
}

// merge is µ1 ∪ µ2 for compatible bindings.
func merge(a, b mrow) mrow {
	out := mrow{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

func (b mrow) String() string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range vars {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v + "->" + b[v].String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// refKey is the length-prefixed binding key over vars that RowKey
// must reproduce byte for byte (construct grouping sorts on it).
func refKey(b mrow, vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		if val, ok := b[v]; ok {
			frag := val.Key()
			sb.WriteString(strconv.Itoa(len(frag)) + ":" + frag)
		} else {
			sb.WriteByte('?')
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// rowSet is the set of rows of Ω over vars, keyed by refKey.
func rowSet(rows []mrow, vars []string) map[string]bool {
	set := map[string]bool{}
	for _, r := range rows {
		set[refKey(r, vars)] = true
	}
	return set
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// µ1 ∼ µ2 and µ1 ∪ µ2 on slot rows: compatibility over the shared
// slots (unbound constrains nothing) and the merged row of a join.
func TestCompatibleAndMerge(t *testing.T) {
	a := tableOf([]string{"x", "y"}, row("x", value.NodeRef(1), "y", value.Int(2)))
	b := tableOf([]string{"y", "z"}, row("y", value.Int(2), "z", value.Str("s")))
	c := tableOf([]string{"y"}, row("y", value.Int(3)))
	u := tableOf([]string{"y"}, row())
	y := []string{"y"}
	if !rowsCompatibleOn(a, 0, slotsOf(a, y), b, 0, slotsOf(b, y)) || rowsCompatibleOn(a, 0, slotsOf(a, y), c, 0, slotsOf(c, y)) {
		t.Fatal("compatibility misjudged")
	}
	if !rowsCompatibleOn(a, 0, slotsOf(a, y), u, 0, slotsOf(u, y)) || !rowsCompatibleOn(u, 0, slotsOf(u, y), c, 0, slotsOf(c, y)) {
		t.Fatal("an unbound slot is compatible with everything")
	}
	j := Join(a, b)
	if j.Len() != 1 {
		t.Fatalf("a ⋈ b = %d rows, want 1", j.Len())
	}
	if m := rowOf(j, 0); len(m) != 3 || !value.Equal(m["z"], value.Str("s")) || !value.Equal(m["x"], value.NodeRef(1)) {
		t.Fatalf("merge = %v", m)
	}
	if Join(a, c).Len() != 0 {
		t.Error("incompatible rows must not merge")
	}
	if got := j.Vars(); len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Errorf("Vars = %v", got)
	}
}

// RowKey distinguishes bound from unbound slots and renders equal rows
// alike; String renders the table for diagnostics.
func TestBindingKeyAndString(t *testing.T) {
	tbl := tableOf([]string{"x", "y"}, row("x", value.Int(1)), row("x", value.Int(1), "y", value.Int(2)), row("x", value.Int(1)))
	if tbl.RowKey(0) != tbl.RowKey(2) {
		t.Error("equal rows must have equal keys")
	}
	if tbl.RowKey(0) == tbl.RowKey(1) {
		t.Error("unbound var must be distinguished in key")
	}
	for i := 0; i < tbl.Len(); i++ {
		if got, want := tbl.RowKey(i), refKey(rowOf(tbl, i), tbl.Vars()); got != want {
			t.Errorf("RowKey(%d) = %q, want %q", i, got, want)
		}
	}
	if s := tbl.String(); !strings.Contains(s, "x\ty") || !strings.Contains(s, "\t2") || !strings.Contains(s, "·") {
		t.Errorf("String = %q", s)
	}
}

// The worked example of §A.2: three pattern tables joined to a single
// binding {x↦105, y↦102, w↦106, z↦301}.
func TestJoinPaperExample(t *testing.T) {
	t1 := tableOf([]string{"x", "w"},
		row("x", value.NodeRef(105), "w", value.NodeRef(106)),
		row("x", value.NodeRef(102), "w", value.NodeRef(106)))
	t2 := tableOf([]string{"y", "w"},
		row("y", value.NodeRef(102), "w", value.NodeRef(106)),
		row("y", value.NodeRef(105), "w", value.NodeRef(106)))
	t3 := tableOf([]string{"z", "x", "y"},
		row("z", value.PathRef(301), "x", value.NodeRef(105), "y", value.NodeRef(102)))

	j12 := Join(t1, t2)
	if j12.Len() != 4 {
		t.Fatalf("t1 ⋈ t2 has %d rows, want 4 (cartesian on shared w)", j12.Len())
	}
	j := Join(j12, t3)
	if j.Len() != 1 {
		t.Fatalf("final join has %d rows, want 1", j.Len())
	}
	got := rowOf(j, 0)
	want := row("x", value.NodeRef(105), "y", value.NodeRef(102), "w", value.NodeRef(106), "z", value.PathRef(301))
	if !compatible(got, want) || len(got) != 4 {
		t.Fatalf("join row = %v", got)
	}
}

func TestJoinDisjointIsCartesian(t *testing.T) {
	a := tableOf([]string{"a"}, row("a", value.Int(1)), row("a", value.Int(2)))
	b := tableOf([]string{"b"}, row("b", value.Int(3)), row("b", value.Int(4)))
	j := Join(a, b)
	if j.Len() != 4 {
		t.Fatalf("cartesian product has %d rows", j.Len())
	}
}

// The semijoin ⋉ is realised as a Join whose emptiness is tested (how
// pattern predicates decide existence per outer row), and the antijoin
// ∖ as the unmatched rows LeftJoin keeps.
func TestSemiAntiLeftJoin(t *testing.T) {
	people := tableOf([]string{"n"},
		row("n", value.NodeRef(1)), row("n", value.NodeRef(2)), row("n", value.NodeRef(3)))
	works := tableOf([]string{"n", "c"},
		row("n", value.NodeRef(1), "c", value.Str("Acme")),
		row("n", value.NodeRef(1), "c", value.Str("HAL")),
		row("n", value.NodeRef(2), "c", value.Str("CWI")))

	semi := 0
	for i := 0; i < people.Len(); i++ {
		if Join(works, people.RowTable(i)).Len() > 0 {
			semi++
		}
	}
	if semi != 2 {
		t.Errorf("semijoin = %d rows, want 2", semi)
	}
	lj := LeftJoin(people, works)
	if lj.Len() != 4 {
		t.Fatalf("leftjoin = %d rows, want 4", lj.Len())
	}
	// Node 3 (the antijoin) keeps a row with c unbound.
	found := false
	for _, r := range rowsOf(lj) {
		if value.Equal(r["n"], value.NodeRef(3)) {
			if _, bound := r["c"]; bound {
				t.Error("unmatched row must leave optional var unbound")
			}
			found = true
		}
	}
	if !found {
		t.Error("left join lost the unmatched left row")
	}
}

// OPTIONAL semantics corner case: a right row that leaves a shared
// variable unbound is compatible with every left row.
func TestJoinWithUnboundSharedVars(t *testing.T) {
	a := tableOf([]string{"x"}, row("x", value.Int(1)), row("x", value.Int(2)))
	b := tableOf([]string{"x", "y"},
		row("y", value.Int(10)),                    // x unbound: compatible with both
		row("x", value.Int(1), "y", value.Int(20))) // only with x=1
	j := Join(a, b)
	if j.Len() != 3 {
		t.Fatalf("join = %d rows, want 3\n%s", j.Len(), j)
	}
	// And symmetric: left row missing the shared var probes everything.
	j2 := Join(b, a)
	if j2.Len() != 3 {
		t.Fatalf("reverse join = %d rows, want 3\n%s", j2.Len(), j2)
	}
}

// Row selection (how residual filters keep rows), projection and the
// canonical sort.
func TestPickProjectSorted(t *testing.T) {
	tbl := tableOf([]string{"x", "y"},
		row("x", value.Int(2), "y", value.Str("b")),
		row("x", value.Int(1), "y", value.Str("a")),
		row("x", value.Int(2), "y", value.Str("c")))
	f := tbl.Pick([]int{0, 2})
	if f.Len() != 2 || !value.Equal(rowOf(f, 1)["y"], value.Str("c")) {
		t.Fatalf("pick = %v", f)
	}
	p := f.Project([]string{"x"})
	if p.Len() != 2 || len(p.Vars()) != 1 {
		t.Fatalf("project = %v", p)
	}
	if d := f.DropVars("y"); d.String() != p.String() {
		t.Fatalf("DropVars(y) = %v, want %v", d, p)
	}
	s := tbl.Sorted()
	if i, _ := rowOf(s, 0)["x"].AsInt(); i != 1 {
		t.Error("sorted order wrong")
	}
	if !tbl.HasVar("x") || tbl.HasVar("z") {
		t.Error("HasVar misbehaves")
	}
}

func TestUnitAndEmpty(t *testing.T) {
	u := Unit()
	if u.Len() != 1 || len(u.RowAt(0)) != 0 {
		t.Error("Unit must hold exactly µ∅")
	}
	e := EmptyTable("x")
	if e.Len() != 0 || !e.HasVar("x") {
		t.Error("EmptyTable misbehaves")
	}
	// Joining with Unit is the identity on rows, from either side.
	tbl := tableOf([]string{"x"}, row("x", value.Int(1)))
	if j := Join(u, tbl); j.Len() != 1 {
		t.Error("Unit ⋈ Ω must equal Ω")
	}
	if j := LeftJoin(tbl, u); j.Len() != 1 || j.Width() != 1 {
		t.Error("Ω ⟕ {µ∅} must equal Ω")
	}
	if j := Join(tbl, e); j.Len() != 0 {
		t.Error("Ω ⋈ ∅ must be empty")
	}
}

func TestTableString(t *testing.T) {
	tbl := tableOf([]string{"x", "y"}, row("x", value.Int(1)))
	s := tbl.String()
	if !strings.Contains(s, "x\ty") || !strings.Contains(s, "·") {
		t.Errorf("String = %q", s)
	}
}

// randTable builds a random table over vars drawn from a tiny domain,
// so the property tests hit collisions and unbound vars.
func randTable(r *rand.Rand, vars []string) *Table {
	n := r.Intn(8)
	rows := make([]mrow, n)
	for i := range rows {
		b := mrow{}
		for _, v := range vars {
			switch r.Intn(3) {
			case 0:
				b[v] = value.Int(int64(r.Intn(3)))
			case 1:
				b[v] = value.Str("s")
			}
			// case 2: leave unbound
		}
		rows[i] = b
	}
	return tableOf(vars, rows...)
}

// TestQuickLeftJoinDecomposition checks Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2)
// as sets, with ∖ computed by the nested-loop definition.
func TestQuickLeftJoinDecomposition(t *testing.T) {
	all := []string{"x", "y", "z"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTable(r, []string{"x", "y"})
		b := randTable(r, []string{"y", "z"})

		dec := rowSet(rowsOf(Join(a, b)), all)
		for _, l := range rowsOf(a) {
			matched := false
			for _, rr := range rowsOf(b) {
				matched = matched || compatible(l, rr)
			}
			if !matched {
				dec[refKey(l, all)] = true
			}
		}
		return sameSet(rowSet(rowsOf(LeftJoin(a, b)), all), dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinCommutes checks Ω1 ⋈ Ω2 = Ω2 ⋈ Ω1 as sets.
func TestQuickJoinCommutes(t *testing.T) {
	all := []string{"x", "y", "z"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTable(r, []string{"x", "y"})
		b := randTable(r, []string{"y", "z"})
		return sameSet(rowSet(rowsOf(Join(a, b)), all), rowSet(rowsOf(Join(b, a)), all))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinMatchesNestedLoop validates the hybrid hash join against
// the obviously correct nested-loop definition.
func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	all := []string{"x", "y", "z"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTable(r, []string{"x", "y"})
		b := randTable(r, []string{"y", "z"})
		var naive []mrow
		for _, l := range rowsOf(a) {
			for _, rr := range rowsOf(b) {
				if compatible(l, rr) {
					naive = append(naive, merge(l, rr))
				}
			}
		}
		return sameSet(rowSet(rowsOf(Join(a, b)), all), rowSet(naive, all))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestJoinLimited(t *testing.T) {
	a := EmptyTable("x")
	b := EmptyTable("y")
	for i := 0; i < 50; i++ {
		a.AppendRow([]value.Value{value.Int(int64(i))})
		b.AppendRow([]value.Value{value.Int(int64(i))})
	}
	// Cartesian would be 2500 rows; the limit aborts early.
	out, over := JoinLimited(a, b, 100)
	if !over {
		t.Fatal("overflow not reported")
	}
	if out.Len() > 101 {
		t.Fatalf("materialised %d rows past the limit", out.Len())
	}
	// Under the limit: identical to Join.
	out, over = JoinLimited(a, b, 10_000)
	if over || out.Len() != 2500 {
		t.Fatalf("join = %d rows, over=%v", out.Len(), over)
	}
	lj, over := LeftJoinLimited(a, b, 100)
	if !over || lj.Len() > 101 {
		t.Fatalf("left join limit: %d rows, over=%v", lj.Len(), over)
	}
	// Zero means unlimited.
	if out, over := JoinLimited(a, b, 0); over || out.Len() != 2500 {
		t.Fatal("zero limit must be unlimited")
	}
}
