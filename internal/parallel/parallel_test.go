package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 64} {
		got, err := Map(p, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(got) != 20 {
			t.Fatalf("parallelism %d: got %d results", p, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: result[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

func TestMapSequentialMatchesParallel(t *testing.T) {
	fn := func(i int) (string, error) { return fmt.Sprintf("unit-%03d", i), nil }
	seq, err := Map(1, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(8, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("result[%d]: sequential %q != parallel %q", i, seq[i], par[i])
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad int) error {
		_, err := Map(4, 32, func(i int) (int, error) {
			if i == bad || i == bad+5 {
				return 0, fmt.Errorf("unit %d failed", i)
			}
			return i, nil
		})
		return err
	}
	// Run a few times: scheduling varies, the reported error must not.
	for trial := 0; trial < 10; trial++ {
		err := errAt(3)
		if err == nil {
			t.Fatal("expected error")
		}
		if got := err.Error(); got != "unit 3 failed" {
			t.Fatalf("trial %d: got %q, want the lowest-index failure", trial, got)
		}
	}
}

func TestMapSequentialStopsAtFirstError(t *testing.T) {
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(1, 100, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("sequential mode made %d calls after failing at index 2", calls.Load())
	}
}

func TestMapCancelsAfterError(t *testing.T) {
	// With parallelism 2 and an immediate failure, far fewer than n units
	// should run: workers stop picking up new indices once failed is set.
	var calls atomic.Int64
	_, err := Map(2, 10_000, func(i int) (int, error) {
		calls.Add(1)
		return 0, errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if c := calls.Load(); c > 1000 {
		t.Fatalf("ran %d units after the first failure; early cancel is not working", c)
	}
}

func TestMapRecoversPanic(t *testing.T) {
	_, err := Map(4, 8, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
	if !strings.Contains(err.Error(), "worker 5 panicked") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("unhelpful panic error: %v", err)
	}
}

func TestMapPanicSequential(t *testing.T) {
	_, err := Map(1, 3, func(i int) (int, error) {
		panic("inline")
	})
	if err == nil || !strings.Contains(err.Error(), "worker 0 panicked") {
		t.Fatalf("got %v", err)
	}
}

func TestDefaultParallelism(t *testing.T) {
	if got := DefaultParallelism(0); got != runtime.NumCPU() {
		t.Fatalf("DefaultParallelism(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := DefaultParallelism(-3); got != runtime.NumCPU() {
		t.Fatalf("DefaultParallelism(-3) = %d, want NumCPU", got)
	}
	if got := DefaultParallelism(5); got != 5 {
		t.Fatalf("DefaultParallelism(5) = %d, want 5", got)
	}
}

func TestMapHighContention(t *testing.T) {
	// Many more workers than units and vice versa; run under -race to check
	// the index hand-out and result writes.
	for _, c := range []struct{ p, n int }{{16, 4}, {4, 4096}, {3, 1}} {
		got, err := Map(c.p, c.n, func(i int) (int, error) { return i + 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("p=%d n=%d: result[%d] = %d", c.p, c.n, i, v)
			}
		}
	}
}
