// Package parallel provides the bounded worker pool the experiment harness
// fans independent simulation units out across. The evaluation (Figs. 1, 5-8
// and the ablations) is a large set of scenario × policy × seed runs, each
// owning its own machine and RNG seed — embarrassingly parallel with a
// deterministic merge, the same fan-out shape middleware evaluations such as
// MARS and E-Mapper use for design-space sweeps.
//
// The contract that keeps parallel results bit-identical to sequential ones:
// the worker function for index i must depend only on i (and read-only shared
// state), and results are collected positionally, so neither the parallelism
// level nor scheduling order can influence what the caller observes.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelism resolves a Parallelism knob: values <= 0 mean "one
// worker per CPU", 1 means strictly sequential, anything else is taken
// as-is.
func DefaultParallelism(p int) int {
	if p <= 0 {
		return runtime.NumCPU()
	}
	return p
}

// Map runs fn(0..n-1) across at most parallelism workers and returns the
// results in index order. Parallelism <= 0 defaults to NumCPU; 1 runs inline
// on the calling goroutine with no pool machinery at all (the sequential
// fallback).
//
// A panic inside fn is recovered and reported as an error rather than
// crashing the sibling workers. On the first failure the remaining indices
// are cancelled (workers stop picking up new work; in-flight calls finish).
// When several indices fail, the error of the lowest index is returned so
// the reported failure does not depend on scheduling.
func Map[T any](parallelism, n int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	parallelism = DefaultParallelism(parallelism)
	if parallelism > n {
		parallelism = n
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			v, err := call(i, fn)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	var (
		next    atomic.Int64 // next index to hand out
		failed  atomic.Bool  // set on first error; stops new work
		mu      sync.Mutex
		firstIx = n // lowest failing index seen so far
		firstEr error
		wg      sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			v, err := call(i, fn)
			if err != nil {
				failed.Store(true)
				mu.Lock()
				if i < firstIx {
					firstIx, firstEr = i, err
				}
				mu.Unlock()
				return
			}
			results[i] = v
		}
	}
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go worker()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}

// call invokes fn(i), converting a panic into an error that names the index.
func call[T any](i int, fn func(int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: worker %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}
