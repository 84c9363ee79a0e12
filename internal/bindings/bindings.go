// Package bindings implements the variable-binding machinery of
// G-CORE's semantics (§A.1 of the paper): bindings µ are partial
// functions from variables to graph objects and literals, and binding
// tables Ω are finite sets of bindings. The evaluator uses the join ⋈
// and the left-outer join ⟕ of OPTIONAL; the semijoin ⋉ is realised
// by Join (correlation, and pattern predicates that test a join for
// non-emptiness), and the antijoin ∖ exists only inside LeftJoin.
//
// Tables are stored columnar: the schema interns each variable to a
// slot index and rows live in one flat row-major []value.Value backing
// array, with value.Absent marking unbound slots (µ is partial). This
// is the only representation of µ: callers read row i through RowAt,
// Value or RowKey. Row copies are slice copies, and the join family
// buckets rows by a uint64 hash of the shared slots (value.Value.Hash,
// consistent with value.Equal) with slot-wise equality confirmation on
// probe — no per-row maps, no string key building.
package bindings

import (
	"sort"
	"strconv"
	"strings"

	"gcore/internal/value"
)

// Table is a binding table Ω: a set of bindings together with the
// variables that may occur in them (its schema). The schema is the
// union of the variables of the contributing patterns; individual
// rows may leave schema variables unbound (OPTIONAL).
//
// Layout: vars is the sorted schema (variable → slot by binary
// search), data holds the rows back to back (row i occupies
// data[i*len(vars) : (i+1)*len(vars)]), and value.Absent marks
// unbound slots. n tracks the row count explicitly so zero-width
// tables (Unit) still know how many µ∅ rows they hold.
type Table struct {
	vars []string // sorted
	data []value.Value
	n    int
}

// Unit returns the table {µ∅}: one row binding nothing. It is the
// starting Ω′ of a top-level MATCH (§A.5).
func Unit() *Table { return &Table{n: 1} }

// EmptyTable returns a table with no rows.
func EmptyTable(vars ...string) *Table { return &Table{vars: normVars(vars)} }

func normVars(vars []string) []string {
	vs := append([]string(nil), vars...)
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// Vars returns the table's schema in sorted order.
func (t *Table) Vars() []string { return t.vars }

// Width returns the number of schema variables (slots per row).
func (t *Table) Width() int { return len(t.vars) }

// SlotOf returns the slot index of v in the schema, or -1.
func (t *Table) SlotOf(v string) int {
	i := sort.SearchStrings(t.vars, v)
	if i < len(t.vars) && t.vars[i] == v {
		return i
	}
	return -1
}

// HasVar reports whether v is part of the schema.
func (t *Table) HasVar(v string) bool { return t.SlotOf(v) >= 0 }

// Len returns |Ω|.
func (t *Table) Len() int { return t.n }

// RowAt returns row i as a slot-ordered slice; unbound slots hold
// value.Absent. The slice aliases the table and must not be modified.
func (t *Table) RowAt(i int) []value.Value {
	w := len(t.vars)
	return t.data[i*w : (i+1)*w : (i+1)*w]
}

// Value returns the value bound to name in row i; ok is false when the
// variable is unbound there (or not in the schema at all).
func (t *Table) Value(i int, name string) (value.Value, bool) {
	s := t.SlotOf(name)
	if s < 0 {
		return value.Null, false
	}
	v := t.data[i*len(t.vars)+s]
	if v.IsAbsent() {
		return value.Null, false
	}
	return v, true
}

// RowKey returns a canonical string for row i over the whole schema:
// each slot contributes its value.Key fragment, length-prefixed, or
// the unbound marker '?', and a '|' terminator. Equal rows yield equal
// keys and distinct rows distinct keys — the length prefix keeps a
// fragment containing '|' or '?' from colliding across slots.
func (t *Table) RowKey(i int) string {
	var sb strings.Builder
	for _, v := range t.RowAt(i) {
		if v.IsAbsent() {
			sb.WriteByte('?')
		} else {
			frag := v.Key()
			sb.WriteString(strconv.Itoa(len(frag)))
			sb.WriteByte(':')
			sb.WriteString(frag)
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// RowTable returns a one-row table holding exactly the bound variables
// of row i — the outer table of a correlated subquery.
func (t *Table) RowTable(i int) *Table {
	base := i * len(t.vars)
	var vars []string
	for s, v := range t.vars {
		if !t.data[base+s].IsAbsent() {
			vars = append(vars, v)
		}
	}
	out := &Table{vars: vars} // already sorted: subsequence of a sorted schema
	for s := range t.vars {
		if val := t.data[base+s]; !val.IsAbsent() {
			out.data = append(out.data, val)
		}
	}
	out.n = 1
	return out
}

// AppendRow appends one dense row given in slot order (value.Absent
// marks unbound slots). The slice is copied.
func (t *Table) AppendRow(row []value.Value) {
	t.data = append(t.data, row...)
	t.n++
}

// AppendSlab appends len(slab)/Width() rows laid out back to back in
// slot order — the merge step of chunked parallel row production.
func (t *Table) AppendSlab(slab []value.Value) {
	if len(t.vars) == 0 {
		return
	}
	t.data = append(t.data, slab...)
	t.n += len(slab) / len(t.vars)
}

// Pick returns a new table holding the given rows, in the given order.
func (t *Table) Pick(rows []int) *Table {
	out := &Table{vars: t.vars, n: len(rows)}
	w := len(t.vars)
	out.data = make([]value.Value, 0, len(rows)*w)
	for _, i := range rows {
		out.data = append(out.data, t.data[i*w:(i+1)*w]...)
	}
	return out
}

// WithOrdinal returns a copy of the table extended by a column binding
// name to the row's current ordinal. The evaluator uses it to tag rows
// before a reordered join so the textual emission order can be
// restored afterwards.
func (t *Table) WithOrdinal(name string) *Table {
	out := EmptyTable(append([]string{name}, t.vars...)...)
	w, ow := len(t.vars), len(out.vars)
	slot := out.SlotOf(name)
	mapTo := slotMapping(t.vars, out.vars)
	out.data = make([]value.Value, t.n*ow)
	for i := range out.data {
		out.data[i] = value.Absent
	}
	for i := 0; i < t.n; i++ {
		dst := out.data[i*ow : (i+1)*ow]
		src := t.data[i*w : (i+1)*w]
		for s, v := range src {
			dst[mapTo[s]] = v
		}
		dst[slot] = value.Int(int64(i))
	}
	out.n = t.n
	return out
}

// SortStableByVars returns a copy whose rows are stably sorted by
// value.Compare over the listed variables, in order.
func (t *Table) SortStableByVars(vars []string) *Table {
	slots := make([]int, 0, len(vars))
	for _, v := range vars {
		if s := t.SlotOf(v); s >= 0 {
			slots = append(slots, s)
		}
	}
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	w := len(t.vars)
	sort.SliceStable(perm, func(x, y int) bool {
		bi, bj := perm[x]*w, perm[y]*w
		for _, s := range slots {
			if c := value.Compare(t.data[bi+s], t.data[bj+s]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return t.Pick(perm)
}

// DropVars returns a copy of the table without the listed variables.
func (t *Table) DropVars(names ...string) *Table {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	keep := make([]string, 0, len(t.vars))
	for _, v := range t.vars {
		if !drop[v] {
			keep = append(keep, v)
		}
	}
	return t.Project(keep)
}

// sharedVars returns the schema intersection of two tables.
func sharedVars(a, b *Table) []string {
	out := []string{}
	for _, v := range a.vars {
		if b.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

func unionVars(a, b *Table) []string {
	return normVars(append(append([]string(nil), a.vars...), b.vars...))
}

// slotsOf maps variable names to their slots in t (all must exist).
func slotsOf(t *Table, vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = t.SlotOf(v)
	}
	return out
}

// slotMapping maps each slot of src to its slot in dst (src ⊆ dst).
func slotMapping(src, dst []string) []int {
	out := make([]int, len(src))
	j := 0
	for i, v := range src {
		for dst[j] != v {
			j++
		}
		out[i] = j
	}
	return out
}

// absentTemplate is an all-Absent row used to grow output slabs.
func absentTemplate(w int) []value.Value {
	tmpl := make([]value.Value, w)
	for i := range tmpl {
		tmpl[i] = value.Absent
	}
	return tmpl
}

// rowBoundAll reports whether row i binds every listed slot.
func (t *Table) rowBoundAll(i int, slots []int) bool {
	base := i * len(t.vars)
	for _, s := range slots {
		if t.data[base+s].IsAbsent() {
			return false
		}
	}
	return true
}

// rowHash folds the listed slots of row i into a hash consistent with
// slot-wise value.Equal (Absent carries its own tag).
func (t *Table) rowHash(i int, slots []int) uint64 {
	h := value.HashSeed()
	base := i * len(t.vars)
	for _, s := range slots {
		h = t.data[base+s].Hash(h)
	}
	return h
}

// rowsEqualOn reports slot-wise equality (Absent equals only Absent) —
// the confirmation step after a hash bucket hit.
func rowsEqualOn(a *Table, i int, aSlots []int, b *Table, j int, bSlots []int) bool {
	ab, bb := i*len(a.vars), j*len(b.vars)
	for k := range aSlots {
		if !value.Equal(a.data[ab+aSlots[k]], b.data[bb+bSlots[k]]) {
			return false
		}
	}
	return true
}

// rowsCompatibleOn reports µ1 ∼ µ2 over the shared slots: a slot
// unbound on either side constrains nothing.
func rowsCompatibleOn(a *Table, i int, aSlots []int, b *Table, j int, bSlots []int) bool {
	ab, bb := i*len(a.vars), j*len(b.vars)
	for k := range aSlots {
		va, vb := a.data[ab+aSlots[k]], b.data[bb+bSlots[k]]
		if va.IsAbsent() || vb.IsAbsent() {
			continue
		}
		if !value.Equal(va, vb) {
			return false
		}
	}
	return true
}

// legacyOrderKey returns the pre-columnar row key of the listed
// slots: value.Key fragments (or '?') joined by '|'. It is NOT
// collision-free (RowKey is) and is used only for ordering — Sorted
// and the join's unbound-probe order must keep producing
// byte-identical output, and the historical order is the
// lexicographic order of exactly this string.
func (t *Table) legacyOrderKey(i int, slots []int) string {
	var sb strings.Builder
	base := i * len(t.vars)
	for _, s := range slots {
		if v := t.data[base+s]; v.IsAbsent() {
			sb.WriteByte('?')
		} else {
			v.AppendKeyTo(&sb)
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// matcher indexes the rows of a table for compatibility probes on the
// shared variables with another table. Rows that bind all shared
// variables go into hash buckets (insertion order within a bucket);
// rows with unbound shared variables must be checked pairwise and are
// kept in a loose list.
type matcher struct {
	t           *Table
	slots       []int
	buckets     map[uint64][]int
	loose       []int
	denseSorted []int // lazily built for the unbound-left probe
	sortedBuilt bool
}

func newMatcher(t *Table, shared []string) *matcher {
	m := &matcher{t: t, slots: slotsOf(t, shared), buckets: map[uint64][]int{}}
	for j := 0; j < t.n; j++ {
		if t.rowBoundAll(j, m.slots) {
			h := t.rowHash(j, m.slots)
			m.buckets[h] = append(m.buckets[h], j)
		} else {
			m.loose = append(m.loose, j)
		}
	}
	return m
}

// denseInKeyOrder returns the fully-bound rows ordered by the legacy
// key of their shared slots (ties in insertion order) — the candidate
// order the pre-columnar implementation produced for a left row that
// leaves a shared variable unbound, preserved so row emission order
// (and therefore constructed-object identities downstream) does not
// change.
func (m *matcher) denseInKeyOrder() []int {
	if m.sortedBuilt {
		return m.denseSorted
	}
	m.sortedBuilt = true
	for j := 0; j < m.t.n; j++ {
		if m.t.rowBoundAll(j, m.slots) {
			m.denseSorted = append(m.denseSorted, j)
		}
	}
	keys := make([]string, len(m.denseSorted))
	for k, j := range m.denseSorted {
		keys[k] = m.t.legacyOrderKey(j, m.slots)
	}
	perm := make([]int, len(m.denseSorted))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool { return keys[perm[x]] < keys[perm[y]] })
	sorted := make([]int, len(perm))
	for k, pi := range perm {
		sorted[k] = m.denseSorted[pi]
	}
	m.denseSorted = sorted
	return m.denseSorted
}

// Join returns Ω1 ⋈ Ω2 = {µ1 ∪ µ2 | µ1 ∼ µ2}.
func Join(a, b *Table) *Table {
	out, _ := JoinLimited(a, b, 0)
	return out
}

// JoinLimited is Join with a row budget: materialisation stops as
// soon as the output exceeds max rows (0 = unlimited) and the second
// result reports the overflow. Stopping *inside* the join matters:
// an adversarial cartesian product must not be allocated before a
// caller-side check can reject it.
func JoinLimited(a, b *Table, max int) (*Table, bool) {
	out, _, over := joinCore(a, b, max, false)
	return out, over
}

// LeftJoin returns Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2): the operator the
// paper writes as the overlined join and uses for OPTIONAL.
func LeftJoin(a, b *Table) *Table {
	out, _ := LeftJoinLimited(a, b, 0)
	return out
}

// LeftJoinLimited is LeftJoin with the same row budget semantics as
// JoinLimited.
func LeftJoinLimited(a, b *Table, max int) (*Table, bool) {
	out, _, over := joinCore(a, b, max, true)
	return out, over
}

// joinCore drives Join and LeftJoin: per left row (in order), the
// hash-bucket candidates in right-insertion order, then the loose
// rows; a left row missing a shared variable probes the loose rows
// first and then every dense row in legacy key order — reproducing
// the pre-columnar emission order exactly.
func joinCore(a, b *Table, max int, left bool) (*Table, int, bool) {
	out := &Table{vars: unionVars(a, b)}
	w := len(out.vars)
	shared := sharedVars(a, b)
	aS, bS := slotsOf(a, shared), slotsOf(b, shared)
	m := newMatcher(b, shared)
	aMap := slotMapping(a.vars, out.vars)
	bMap := slotMapping(b.vars, out.vars)
	tmpl := absentTemplate(w)
	aw, bw := len(a.vars), len(b.vars)

	emit := func(i, j int) bool {
		start := len(out.data)
		out.data = append(out.data, tmpl...)
		row := out.data[start : start+w]
		src := a.data[i*aw : (i+1)*aw]
		for s, v := range src {
			row[aMap[s]] = v
		}
		if j >= 0 {
			src = b.data[j*bw : (j+1)*bw]
			for s, v := range src {
				if !v.IsAbsent() {
					row[bMap[s]] = v
				}
			}
		}
		out.n++
		return max > 0 && out.n > max
	}

	for i := 0; i < a.n; i++ {
		matched := false
		if a.rowBoundAll(i, aS) {
			h := a.rowHash(i, aS)
			for _, j := range m.buckets[h] {
				if rowsEqualOn(a, i, aS, b, j, bS) {
					matched = true
					if emit(i, j) {
						return out, i, true
					}
				}
			}
			for _, j := range m.loose {
				if rowsCompatibleOn(a, i, aS, b, j, bS) {
					matched = true
					if emit(i, j) {
						return out, i, true
					}
				}
			}
		} else {
			for _, j := range m.loose {
				if rowsCompatibleOn(a, i, aS, b, j, bS) {
					matched = true
					if emit(i, j) {
						return out, i, true
					}
				}
			}
			for _, j := range m.denseInKeyOrder() {
				if rowsCompatibleOn(a, i, aS, b, j, bS) {
					matched = true
					if emit(i, j) {
						return out, i, true
					}
				}
			}
		}
		if left && !matched {
			if emit(i, -1) {
				return out, i, true
			}
		}
	}
	return out, a.n, false
}

// Project restricts every row (and the schema) to vars.
func (t *Table) Project(vars []string) *Table {
	keep := normVars(vars)
	out := &Table{vars: keep, n: t.n}
	srcSlot := make([]int, len(keep))
	for i, v := range keep {
		srcSlot[i] = t.SlotOf(v)
	}
	w := len(t.vars)
	out.data = make([]value.Value, 0, t.n*len(keep))
	for i := 0; i < t.n; i++ {
		base := i * w
		for _, s := range srcSlot {
			if s < 0 {
				out.data = append(out.data, value.Absent)
			} else {
				out.data = append(out.data, t.data[base+s])
			}
		}
	}
	return out
}

// Sorted returns a copy whose rows are in canonical order — the
// lexicographic order of the legacy row keys over the schema, which
// is what deterministic output has always used ("N1" < "N10" < "N2").
func (t *Table) Sorted() *Table {
	all := make([]int, len(t.vars))
	for i := range all {
		all[i] = i
	}
	keys := make([]string, t.n)
	for i := 0; i < t.n; i++ {
		keys[i] = t.legacyOrderKey(i, all)
	}
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool { return keys[perm[x]] < keys[perm[y]] })
	return t.Pick(perm)
}

// String renders the table for diagnostics: header then rows in
// current order.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.vars, "\t"))
	sb.WriteByte('\n')
	w := len(t.vars)
	for i := 0; i < t.n; i++ {
		base := i * w
		for s := range t.vars {
			if s > 0 {
				sb.WriteByte('\t')
			}
			if v := t.data[base+s]; v.IsAbsent() {
				sb.WriteString("·")
			} else {
				sb.WriteString(v.String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
