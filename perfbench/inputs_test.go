package main

import (
	"testing"
	"time"
)

func TestInputsSelfTest(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		if err := selfTestInputs(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDaemonMixShape(t *testing.T) {
	mix := daemonInputs(7)
	if got, want := len(mix.Specs), 2*len(daemonPool); got != want {
		t.Fatalf("%d specs, want %d", got, want)
	}
	for i, s := range mix.Specs {
		if _, err := s.Points(); err != nil {
			t.Errorf("spec %d is not valid: %v", i, err)
		}
	}
	if got, want := len(mix.Sequence), len(mix.Specs)*daemonRepeats+daemonMalformedJobs; got != want {
		t.Fatalf("sequence of %d jobs, want %d", got, want)
	}
}

func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := tail(ds); got.pct != 90 || got.value != 90 {
		t.Errorf("tail of 1..100 = %+v, want p90 = 90", got)
	}
	if got := tail(ds[:15]); got.pct != 50 || got.value != 8 {
		t.Errorf("tail of 1..15 = %+v, want the median fallback 8", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 {
		t.Errorf("root self time %d, want 40", self[1])
	}
	if self[2] != 30 {
		t.Errorf("leaf self time %d, want its duration 30", self[2])
	}
}
