// Package runner schedules independent simulation runs across a bounded
// worker pool. Each simulated machine is a self-contained, single-threaded
// discrete-event system — virtual time advances only through its own
// clock — so whole runs fan out across OS threads freely while every
// individual run stays serial and deterministic. Results are reassembled
// in submission order, which is what makes parallel experiment output
// byte-identical to sequential output for the same seed.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Workers resolves a requested parallelism degree against a task count:
// 0 or negative means GOMAXPROCS, and the result never exceeds n (extra
// workers would only idle).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// panicError wraps a worker panic so every runner entry point surfaces the
// same shape: which task blew up (index, and name when there is one) plus
// the original panic value.
func panicError(i int, name string, r any) error {
	if name != "" {
		return fmt.Errorf("runner: task %d (%s) panicked: %v", i, name, r)
	}
	return fmt.Errorf("runner: task %d panicked: %v", i, r)
}

// Map runs fn over every item on up to workers goroutines and returns the
// results in input order. fn must be self-contained: each call builds and
// drives its own simulated machine (or otherwise touches no shared state).
// With workers ≤ 1 the calls happen inline on the caller's goroutine, in
// order. Every call runs even when one panics; afterwards the panic of the
// lowest-index failing call is re-raised on the caller's goroutine, wrapped
// as an error naming the task index, so which panic surfaces does not
// depend on timing.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	if len(items) == 0 {
		return nil
	}
	tasks := make([]Task[R], len(items))
	for i, item := range items {
		tasks[i].Fn = func() (R, error) { return fn(i, item), nil }
	}
	out := make([]R, len(items))
	var failed error
	Stream(workers, nil, tasks, func(i int, r TaskResult[R]) {
		out[i] = r.Value
		if failed == nil {
			failed = r.Err
		}
	})
	if failed != nil {
		panic(failed)
	}
	return out
}

// Task is one named unit of schedulable work with a typed result.
type Task[R any] struct {
	Name string
	Fn   func() (R, error)
}

// TaskResult pairs one task's output with its error and wall-clock time.
type TaskResult[R any] struct {
	Name  string
	Value R
	Err   error
	Wall  time.Duration
}

// Stream executes tasks on up to workers goroutines and calls emit on the
// caller's goroutine once per task, in submission order, as soon as the task
// (and every task before it) has finished. One progress line per completed
// task — name, wall time, ok/error — is written to progress as tasks finish
// (nil silences it); completion order on the progress stream is
// nondeterministic, the emit order is not. A panicking task is captured as
// an error so the remaining tasks still run. This lets a CLI print experiment
// output incrementally while keeping stdout byte-identical to a
// sequential run.
func Stream[R any](workers int, progress io.Writer, tasks []Task[R], emit func(i int, r TaskResult[R])) {
	n := len(tasks)
	if n == 0 {
		return
	}
	w := Workers(workers, n)

	var mu sync.Mutex // serializes progress lines
	note := func(format string, args ...any) {
		if progress == nil {
			return
		}
		mu.Lock()
		fmt.Fprintf(progress, format, args...)
		mu.Unlock()
	}

	runOne := func(i int) TaskResult[R] {
		t := tasks[i]
		res := TaskResult[R]{Name: t.Name}
		start := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					res.Err = panicError(i, t.Name, r)
				}
			}()
			res.Value, res.Err = t.Fn()
		}()
		res.Wall = time.Since(start)
		if res.Err != nil {
			note("[%d/%d] %s: %v (%.1fs)\n", i+1, n, t.Name, res.Err, res.Wall.Seconds())
		} else {
			note("[%d/%d] %s ok (%.1fs)\n", i+1, n, t.Name, res.Wall.Seconds())
		}
		return res
	}

	if w == 1 {
		for i := 0; i < n; i++ {
			emit(i, runOne(i))
		}
		return
	}

	// One buffered slot per task: workers post results as they finish,
	// the caller drains slots in submission order.
	slots := make([]chan TaskResult[R], n)
	for i := range slots {
		slots[i] = make(chan TaskResult[R], 1)
	}
	idx := make(chan int)
	for g := 0; g < w; g++ {
		go func() {
			for i := range idx {
				slots[i] <- runOne(i)
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
	}()
	for i := 0; i < n; i++ {
		emit(i, <-slots[i])
	}
}
