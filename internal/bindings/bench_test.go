package bindings

import (
	"fmt"
	"testing"

	"gcore/internal/value"
)

func benchTables(n int) (*Table, *Table) {
	a := EmptyTable("x", "y")
	b := EmptyTable("y", "z")
	for i := 0; i < n; i++ {
		a.AppendRow([]value.Value{value.Int(int64(i)), value.Int(int64(i % (n / 4)))})
		b.AppendRow([]value.Value{value.Int(int64(i % (n / 4))), value.Str("v")})
	}
	return a, b
}

func BenchmarkJoin(b *testing.B) {
	for _, n := range []int{100, 1000} {
		a, t := benchTables(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if Join(a, t).Len() == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}

func BenchmarkLeftJoin(b *testing.B) {
	a, t := benchTables(1000)
	for i := 0; i < b.N; i++ {
		if LeftJoin(a, t).Len() == 0 {
			b.Fatal("empty join")
		}
	}
}
