package bindings

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gcore/internal/value"
)

// Tests for the columnar table layout: RowKey injectivity (the
// '|'-join collision hazard), hash/key consistency, and exact-sequence
// agreement of the hashed joins with a naive reference that replays
// the legacy nested-loop algorithm over map rows, on randomized tables
// with unbound slots and adversarial string values.

// adversarialVals contains values whose Key fragments contain the
// join separator '|', the unbound marker '?', and strings shaped like
// the length prefix itself.
var adversarialVals = []value.Value{
	value.Null,
	value.Bool(true),
	value.Int(0),
	value.Int(2),
	value.Str(""),
	value.Str("a"),
	value.Str("?"),
	value.Str("|"),
	value.Str("a|b"),
	value.Str(`a"|s"b`),
	value.Str("2:ab"),
	value.Str("?|"),
	value.Float(1.5),
	value.Float(2),
	value.NodeRef(1),
	value.EdgeRef(1),
	value.List(value.Int(1), value.Str("|")),
}

// TestKeyInjectiveAdversarial: two rows have the same RowKey iff they
// agree (bound-ness and value) on every var, and the key is the
// length-prefixed encoding construct grouping has always sorted on.
// The old encoding joined raw fragments with '|' and wrote a bare '?'
// for unbound vars, so fragments containing those bytes could collide
// across variable boundaries; the length prefix makes the encoding
// injective for arbitrary fragments.
func TestKeyInjectiveAdversarial(t *testing.T) {
	vars := []string{"x", "y", "z"}
	// All rows over vars with each slot unbound or any adversarial
	// value would be 18^3; sample instead, plus a few crafted pairs.
	gen := func(r *rand.Rand) mrow {
		b := mrow{}
		for _, v := range vars {
			if i := r.Intn(len(adversarialVals) + 1); i > 0 {
				b[v] = adversarialVals[i-1]
			}
		}
		return b
	}
	keys := func(a, b mrow) (string, string) {
		tbl := tableOf(vars, a, b)
		return tbl.RowKey(0), tbl.RowKey(1)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a, b := gen(r), gen(r)
		ka, kb := keys(a, b)
		if (ka == kb) != refEqualOn(a, b, vars) {
			t.Fatalf("RowKey collision or miss:\na=%v key=%q\nb=%v key=%q", a, ka, b, kb)
		}
		if ka != refKey(a, vars) {
			t.Fatalf("RowKey(%v) = %q, want %q", a, ka, refKey(a, vars))
		}
	}
	// The historical hazard, spelled out: moving a separator across a
	// variable boundary must change the key.
	if k1, k2 := keys(mrow{"x": value.Str("a|b"), "y": value.Str("c")}, mrow{"x": value.Str("a"), "y": value.Str("b|c")}); k1 == k2 {
		t.Fatal("separator smuggled across variable boundary")
	}
	// A bound '?'-like string must not collide with an unbound slot.
	if k1, k2 := keys(mrow{"x": value.Str("?")}, mrow{}); k1 == k2 {
		t.Fatal("bound \"?\" collides with unbound slot")
	}
}

// FuzzKeyInjective drives the same invariant from fuzzed strings.
func FuzzKeyInjective(f *testing.F) {
	f.Add("a|b", "c", "a", "b|c")
	f.Add("?", "x", "", "?|x")
	f.Add("2:ab", "", "2", ":ab")
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2 string) {
		tbl := tableOf([]string{"x", "y"},
			mrow{"x": value.Str(x1), "y": value.Str(y1)},
			mrow{"x": value.Str(x2), "y": value.Str(y2)})
		same := x1 == x2 && y1 == y2
		if (tbl.RowKey(0) == tbl.RowKey(1)) != same {
			t.Fatalf("injectivity broken: %q/%q vs %q/%q", x1, y1, x2, y2)
		}
	})
}

// TestHashMatchesKey: the FNV hash and the Key encoding must agree on
// what is equal — equal keys hash equal (else hashed joins split a
// bucket the string-keyed code would share), and unequal keys should
// essentially never collide over the small test domain. The same holds
// row-wise: equal RowKeys imply equal row hashes.
func TestHashMatchesKey(t *testing.T) {
	seed := value.HashSeed()
	for _, a := range adversarialVals {
		for _, b := range adversarialVals {
			ka, kb := a.Key(), b.Key()
			ha, hb := a.Hash(seed), b.Hash(seed)
			if ka == kb && ha != hb {
				t.Fatalf("equal keys, unequal hashes: %s vs %s", a, b)
			}
			if ka != kb && ha == hb {
				t.Fatalf("hash collision in tiny domain: %s vs %s", a, b)
			}
		}
	}
	// Numeric canonicalisation: 2.0 and 2 are Equal, so they must
	// share both key and hash.
	if value.Float(2).Hash(seed) != value.Int(2).Hash(seed) {
		t.Fatal("integral float must hash like the equal int")
	}
	tbl := tableOf([]string{"x", "y"},
		mrow{"x": value.Float(2), "y": value.Str("|")},
		mrow{"x": value.Int(2), "y": value.Str("|")},
		mrow{"x": value.Int(2)})
	all := []int{0, 1}
	for i := 0; i < tbl.Len(); i++ {
		for j := 0; j < tbl.Len(); j++ {
			if (tbl.RowKey(i) == tbl.RowKey(j)) != (tbl.rowHash(i, all) == tbl.rowHash(j, all)) {
				t.Fatalf("rows %d/%d: RowKey and row hash disagree", i, j)
			}
		}
	}
}

// --- naive reference: the legacy nested-loop operators ---------------

func refLegacyKey(b mrow, vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		if val, ok := b[v]; ok {
			sb.WriteString(val.Key())
		} else {
			sb.WriteByte('?')
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

func refBoundAll(b mrow, vars []string) bool {
	for _, v := range vars {
		if _, ok := b[v]; !ok {
			return false
		}
	}
	return true
}

func refEqualOn(a, b mrow, vars []string) bool {
	for _, v := range vars {
		av, aok := a[v]
		bv, bok := b[v]
		if aok != bok || (aok && !value.Equal(av, bv)) {
			return false
		}
	}
	return true
}

func refShared(a, b *Table) []string {
	var out []string
	for _, v := range a.Vars() {
		if b.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// refJoinRows replays the legacy matcher's candidate order exactly:
// a probe bound on all shared vars sees the matching dense rows in
// insertion order then the loose rows; an unbound probe sees the
// loose rows then every dense row in canonical key order.
func refJoinRows(a, b *Table, left bool) []mrow {
	shared := refShared(a, b)
	var dense, loose []mrow
	for _, r := range rowsOf(b) {
		if refBoundAll(r, shared) {
			dense = append(dense, r)
		} else {
			loose = append(loose, r)
		}
	}
	denseSorted := append([]mrow(nil), dense...)
	sort.SliceStable(denseSorted, func(i, j int) bool {
		return refLegacyKey(denseSorted[i], shared) < refLegacyKey(denseSorted[j], shared)
	})
	var out []mrow
	for _, l := range rowsOf(a) {
		matched := false
		emit := func(r mrow) {
			matched = true
			out = append(out, merge(l, r))
		}
		if refBoundAll(l, shared) {
			for _, r := range dense {
				if refEqualOn(l, r, shared) {
					emit(r)
				}
			}
			for _, r := range loose {
				if compatible(l, r) {
					emit(r)
				}
			}
		} else {
			for _, r := range loose {
				if compatible(l, r) {
					emit(r)
				}
			}
			for _, r := range denseSorted {
				if compatible(l, r) {
					emit(r)
				}
			}
		}
		if left && !matched {
			out = append(out, l)
		}
	}
	return out
}

// --- generators ------------------------------------------------------

var propVarPool = []string{"w", "x", "y", "z"}

func propVars(r *rand.Rand) []string {
	var vars []string
	for _, v := range propVarPool {
		if r.Intn(2) == 0 {
			vars = append(vars, v)
		}
	}
	if len(vars) == 0 {
		vars = []string{"x"}
	}
	return vars
}

func propTable(r *rand.Rand, vars []string) *Table {
	rows := make([]mrow, r.Intn(7))
	for i := range rows {
		b := mrow{}
		for _, v := range vars {
			if j := r.Intn(len(adversarialVals) + 4); j < len(adversarialVals) {
				b[v] = adversarialVals[j]
			}
			// else: leave the slot unbound
		}
		rows[i] = b
	}
	return tableOf(vars, rows...)
}

func sameRows(got *Table, want []mrow, vars []string) bool {
	if got.Len() != len(want) {
		return false
	}
	for i := 0; i < got.Len(); i++ {
		if !refEqualOn(rowOf(got, i), want[i], vars) {
			return false
		}
	}
	return true
}

func dumpRows(rows []mrow) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func dumpTable(t *Table) string {
	var sb strings.Builder
	for i := 0; i < t.Len(); i++ {
		sb.WriteString(rowOf(t, i).String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestColumnarJoinMatchesReference: Join and LeftJoin reproduce the
// legacy emission sequence exactly — row for row, not just as sets.
func TestColumnarJoinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		a := propTable(r, propVars(r))
		b := propTable(r, propVars(r))
		all := normVars(append(append([]string(nil), a.Vars()...), b.Vars()...))
		if got, want := Join(a, b), refJoinRows(a, b, false); !sameRows(got, want, all) {
			t.Fatalf("case %d: Join diverged\na:\n%sb:\n%sgot:\n%swant:\n%s",
				i, dumpTable(a), dumpTable(b), dumpTable(got), dumpRows(want))
		}
		if got, want := LeftJoin(a, b), refJoinRows(a, b, true); !sameRows(got, want, all) {
			t.Fatalf("case %d: LeftJoin diverged\na:\n%sb:\n%sgot:\n%swant:\n%s",
				i, dumpTable(a), dumpTable(b), dumpTable(got), dumpRows(want))
		}
	}
}

// TestQuickSortedCanonicalOrder: Sorted orders rows by the canonical
// '|'-joined key the legacy code used, so serialized output (which is
// what the differential suites pin) is unchanged.
func TestQuickSortedCanonicalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := propTable(r, propVars(r))
		s := a.Sorted()
		for i := 1; i < s.Len(); i++ {
			if refLegacyKey(rowOf(s, i-1), a.Vars()) > refLegacyKey(rowOf(s, i), a.Vars()) {
				return false
			}
		}
		return s.Len() == a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
