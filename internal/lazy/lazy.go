// Package lazy provides the one small build-once cell shared by the
// lazily constructed, generation-carried values of the serving layer
// (cluster and candidate indexes). The pattern appears
// wherever a snapshot generation owns an expensive derived structure:
// the first user builds it while concurrent users wait, an incremental
// update may instead seed the next generation's cell with an
// already-derived value (consuming the build), and observers need to
// ask "is it built?" without triggering a build.
package lazy

import (
	"errors"
	"sync"
)

// ErrBuildPanicked settles a cell whose build panicked: the panic
// propagates to the first caller, and every later caller observes this
// error instead of a zero value masquerading as a successful build.
var ErrBuildPanicked = errors.New("lazy: build panicked")

// Cell is a concurrency-safe, build-or-seed-once value. The zero value
// is an empty cell ready for use. Exactly one of the first Do or Seed
// call populates it; every later call returns or keeps the settled
// result. A Cell must not be copied after first use.
type Cell[T any] struct {
	once sync.Once
	mu   sync.Mutex
	done bool
	v    T
	err  error
}

// Do returns the cell's value, running build to populate it if no Do or
// Seed settled the cell yet. Concurrent first callers share one build;
// the build's outcome (including its error) is permanent. A build that
// panics settles the cell with ErrBuildPanicked before the panic
// propagates — sync.Once is consumed by a panicking Do, and without
// this later callers would read a zero value with a nil error.
func (c *Cell[T]) Do(build func() (T, error)) (T, error) {
	c.once.Do(func() {
		settled := false
		defer func() {
			if !settled {
				var zero T
				c.set(zero, ErrBuildPanicked)
			}
		}()
		v, err := build()
		settled = true
		c.set(v, err)
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v, c.err
}

// Seed settles the cell with an already-built value, consuming the
// build-once so a later Do adopts v instead of building. It is a no-op
// on a settled cell.
func (c *Cell[T]) Seed(v T, err error) {
	c.once.Do(func() { c.set(v, err) })
}

// Built returns the settled value without triggering a build; ok is
// false while the cell is empty or a build is still running.
func (c *Cell[T]) Built() (v T, err error, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v, c.err, c.done
}

func (c *Cell[T]) set(v T, err error) {
	c.mu.Lock()
	c.v, c.err, c.done = v, err, true
	c.mu.Unlock()
}
