package faults

import (
	"errors"
	"testing"
	"time"
)

func TestSeededDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, GatherFailProb: 0.3, ApplyFailProb: 0.2, StallProb: 0.1, StallFor: time.Millisecond}
	a, b := NewSeeded(cfg), NewSeeded(cfg)
	for iter := 0; iter < 200; iter++ {
		for attempt := 0; attempt < 3; attempt++ {
			ea := a.Fault(OpGather, iter, attempt)
			eb := b.Fault(OpGather, iter, attempt)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("iter %d attempt %d: injectors disagree: %v vs %v", iter, attempt, ea, eb)
			}
			if ea != nil && ea.Error() != eb.Error() {
				t.Fatalf("iter %d attempt %d: different faults: %v vs %v", iter, attempt, ea, eb)
			}
		}
	}
	if a.Injected() == 0 {
		t.Fatal("probability 0.3 over 200 iterations injected nothing")
	}
	if a.Injected() != b.Injected() {
		t.Fatalf("fault counts diverge: %d vs %d", a.Injected(), b.Injected())
	}
}

func TestSeededFaultTypesAndSentinel(t *testing.T) {
	s := NewSeeded(Config{Seed: 7, GatherFailProb: 1})
	err := s.Fault(OpGather, 3, 1)
	var tr *transient
	if !errors.As(err, &tr) {
		t.Fatalf("want *Transient, got %T (%v)", err, err)
	}
	if tr.Op != OpGather || tr.Iter != 3 || tr.Attempt != 1 {
		t.Fatalf("transient coordinates wrong: %+v", tr)
	}
	if !IsInjected(err) || !errors.Is(err, ErrInjected) {
		t.Fatal("transient fault does not wrap ErrInjected")
	}
	if !tr.Temporary() {
		t.Fatal("transient fault not temporary")
	}

	s = NewSeeded(Config{Seed: 7, StallProb: 1, StallFor: 5 * time.Millisecond})
	err = s.Fault(OpApply, 0, 0)
	var st *Stall
	if !errors.As(err, &st) {
		t.Fatalf("want *Stall, got %T (%v)", err, err)
	}
	if st.D != 5*time.Millisecond || !IsInjected(err) {
		t.Fatalf("stall wrong: %+v injected=%v", st, IsInjected(err))
	}
	// Stalls only hit the first attempt (retries must be able to make
	// progress).
	if err := s.Fault(OpApply, 0, 1); err != nil {
		t.Fatalf("stall injected on retry attempt: %v", err)
	}

	s = NewSeeded(Config{Seed: 7, PanicWorker: true, PanicAt: 12})
	if err := s.Fault(OpWorker, 11, 0); err != nil {
		t.Fatalf("worker fault at wrong iter: %v", err)
	}
	err = s.Fault(OpWorker, 12, 0)
	var wf *WorkerFault
	if !errors.As(err, &wf) || wf.Iter != 12 || !IsInjected(err) {
		t.Fatalf("want *WorkerFault at 12, got %T (%v)", err, err)
	}
}

func TestSeededMaxFaultsCap(t *testing.T) {
	s := NewSeeded(Config{Seed: 1, GatherFailProb: 1, MaxFaults: 4})
	n := 0
	for iter := 0; iter < 50; iter++ {
		if s.Fault(OpGather, iter, 0) != nil {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("cap 4 injected %d faults", n)
	}
	if s.Injected() != 4 {
		t.Fatalf("Injected() = %d", s.Injected())
	}
}

func TestWorkerOpIgnoresTransientProbs(t *testing.T) {
	s := NewSeeded(Config{Seed: 9, GatherFailProb: 1, ApplyFailProb: 1})
	for iter := 0; iter < 20; iter++ {
		if err := s.Fault(OpWorker, iter, 0); err != nil {
			t.Fatalf("worker op faulted without PanicWorker: %v", err)
		}
	}
}
