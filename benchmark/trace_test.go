package main

import (
	"testing"
	"time"
)

func TestCoveredUnionsAndClipsChildren(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	children := [][2]time.Time{
		{at(10), at(30)}, // overlaps the next one: parallel workers
		{at(20), at(40)},
		{at(50), at(60)},
		{at(90), at(120)}, // ends after the parent: clipped at 100
	}
	if got, want := covered(at(0), at(100), children), 50*time.Millisecond; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
	if got := covered(at(0), at(100), nil); got != 0 {
		t.Fatalf("covered with no children = %v", got)
	}
}
