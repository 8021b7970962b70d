package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4, 100); got != 4 {
		t.Fatalf("Workers(4,100) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8,3) = %d, want clamp to task count", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Fatalf("Workers(0,100) = %d, want ≥ 1 (GOMAXPROCS)", got)
	}
	if got := Workers(-1, 0); got != 1 {
		t.Fatalf("Workers(-1,0) = %d, want floor 1", got)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		got := Map(workers, items, func(i, v int) int {
			if i != v {
				t.Errorf("index %d got item %d", i, v)
			}
			return v * v
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, nil, func(i, v int) int { return v }); got != nil {
		t.Fatalf("Map over nil = %v", got)
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	// With 4 workers and 4 mutually-waiting tasks, all must be in flight
	// at once or the barrier below deadlocks (guarded by a timeout).
	const n = 4
	var entered atomic.Int32
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		Map(n, make([]struct{}, n), func(i int, _ struct{}) struct{} {
			if entered.Add(1) == n {
				close(release)
			}
			<-release
			return struct{}{}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers did not run concurrently")
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic not propagated")
		}
	}()
	Map(4, []int{0, 1, 2, 3}, func(i, v int) int {
		if v == 2 {
			panic("boom")
		}
		return v
	})
}

// collect gathers Stream's results in the order it emits them.
func collect[R any](workers int, progress io.Writer, tasks []Task[R]) []TaskResult[R] {
	var out []TaskResult[R]
	Stream(workers, progress, tasks, func(_ int, r TaskResult[R]) { out = append(out, r) })
	return out
}

func TestRunOrderTimingAndErrors(t *testing.T) {
	var buf bytes.Buffer
	tasks := []Task[string]{
		{Name: "a", Fn: func() (string, error) { return "ra", nil }},
		{Name: "b", Fn: func() (string, error) { return "", errors.New("nope") }},
		{Name: "c", Fn: func() (string, error) { panic("kaboom") }},
		{Name: "d", Fn: func() (string, error) { return "rd", nil }},
	}
	res := collect(3, &buf, tasks)
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Name != "a" || res[0].Value != "ra" || res[0].Err != nil {
		t.Fatalf("res[0] = %+v", res[0])
	}
	if res[1].Err == nil || res[1].Err.Error() != "nope" {
		t.Fatalf("res[1].Err = %v", res[1].Err)
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured as error: %v", res[2].Err)
	}
	if res[3].Value != "rd" {
		t.Fatalf("task after panic did not run: %+v", res[3])
	}
	out := buf.String()
	for _, want := range []string{"a ok", "nope", "kaboom", "d ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress missing %q:\n%s", want, out)
		}
	}
}

func TestStreamEmitsInSubmissionOrder(t *testing.T) {
	const n = 50
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Name: fmt.Sprint(i), Fn: func() (int, error) { return i, nil }}
	}
	for _, workers := range []int{1, 4, 16} {
		next := 0
		Stream(workers, nil, tasks, func(i int, r TaskResult[int]) {
			if i != next {
				t.Fatalf("workers=%d: emitted %d, want %d", workers, i, next)
			}
			if r.Value != i {
				t.Fatalf("workers=%d: value %d at index %d", workers, r.Value, i)
			}
			next++
		})
		if next != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, next, n)
		}
	}
}

func TestMapPanicNamesTaskIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				err, ok := r.(error)
				if !ok {
					t.Fatalf("workers=%d: panic value %T is not a wrapped error: %v", workers, r, r)
				}
				if !strings.Contains(err.Error(), "task 2") || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("workers=%d: error %q does not name task 2", workers, err)
				}
			}()
			Map(workers, []int{0, 1, 2, 3}, func(i, v int) int {
				if v == 2 {
					panic("boom")
				}
				return v
			})
		}()
	}
}

func TestStreamPanicErrorNamesTask(t *testing.T) {
	tasks := []Task[int]{
		{Name: "fine", Fn: func() (int, error) { return 1, nil }},
		{Name: "bad", Fn: func() (int, error) { panic("kaboom") }},
	}
	for _, workers := range []int{1, 2} {
		res := collect(workers, nil, tasks)
		if res[1].Err == nil {
			t.Fatalf("workers=%d: panic not captured", workers)
		}
		msg := res[1].Err.Error()
		if !strings.Contains(msg, "task 1") || !strings.Contains(msg, "bad") || !strings.Contains(msg, "kaboom") {
			t.Fatalf("workers=%d: error %q does not identify the panicking task", workers, msg)
		}
		if res[0].Err != nil || res[0].Value != 1 {
			t.Fatalf("workers=%d: sibling task disturbed: %+v", workers, res[0])
		}
	}
}
