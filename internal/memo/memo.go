// Package memo is the one memo of the served path: a bounded, coalescing
// map from keys to the values of a deterministic computation. Every value
// the flow computes — a design, its placement prefix, an allocation, an
// encoded answer — is a pure function of its key, so one rule set serves
// every layer that remembers one.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Memo computes each key's value once and keeps it while it is resident.
// Its rules:
//
//   - It keeps at most its capacity of computed values and drops the least
//     recently used first. It evicts only after a compute succeeds, so a
//     failing compute never costs a resident value its slot.
//   - An in-flight entry is never evicted; the memo may hold more entries
//     than its capacity while many distinct keys compute at once.
//   - Concurrent misses of one key coalesce onto one compute. A waiter
//     whose context ends first returns the context's error while the
//     compute runs on for the others.
//   - A failure goes to the caller that computed and to every waiter, and
//     is never retained: the next Get of the key computes again. A failure
//     is cheap to recompute, and keeping it would let garbage keys evict
//     real values.
//
// An evicted value still held by a caller outlives its residency: eviction
// only forgets. Safe for concurrent use.
type Memo[K comparable, V any] struct {
	capacity int

	mu sync.Mutex
	ll list.List // of *entry[K, V]; front = most recently used
	m  map[K]*list.Element
	st Stats
}

type entry[K comparable, V any] struct {
	key K
	// done is closed when the compute returns; ready is set under mu
	// first, so eviction tells in-flight entries apart without blocking.
	done  chan struct{}
	ready bool
	val   V
	err   error
}

// Stats is a snapshot of a Memo's counters. Its JSON form is the "cache"
// object of fbbd's /v1/stats.
type Stats struct {
	// Hits counts Gets that came away with a value without computing it:
	// from a resident entry, or by joining a compute that then succeeded.
	// Misses counts Gets that ran the compute.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Joins counts Gets that waited on another Get's compute; each
	// resolves into Hits or FailedJoins. FailedJoins counts joins that
	// came away without a value: the compute failed, or the waiter's
	// context ended first. Keeping them out of Hits matters exactly when a
	// bad key is hammered: N Gets coalescing onto one failing compute are
	// N wasted waits, not N-1 hits, and readers take Hits as real memo
	// effectiveness.
	Joins       int64 `json:"joins"`
	FailedJoins int64 `json:"failedJoins"`
	// Builds counts computes run. Every miss runs one, so it equals
	// Misses; readers that count builds read it by that name.
	Builds int64 `json:"builds"`
	// Evictions counts computed values dropped by capacity.
	Evictions int64 `json:"evictions"`
	// Len is the number of resident entries, in-flight ones included.
	Len int `json:"len"`
}

// errPanicked is what the waiters of a compute that panicked receive.
var errPanicked = errors.New("memo: compute panicked")

// New returns an empty memo that keeps at most capacity values
// (minimum 1).
func New[K comparable, V any](capacity int) *Memo[K, V] {
	return &Memo[K, V]{capacity: max(capacity, 1), m: make(map[K]*list.Element)}
}

// Get returns key's value, running compute if no entry for key is resident
// or in flight. A Get that joins another's compute runs nothing, so only
// the Get that misses needs a non-nil compute.
func (m *Memo[K, V]) Get(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if el, ok := m.m[key]; ok {
		m.ll.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		if e.ready {
			m.st.Hits++
			m.mu.Unlock()
			return e.val, nil
		}
		m.st.Joins++
		m.mu.Unlock()
		select {
		case <-e.done:
			m.resolveJoin(e.err != nil)
			return e.val, e.err
		case <-ctx.Done():
			m.resolveJoin(true)
			var zero V
			return zero, ctx.Err()
		}
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	m.m[key] = m.ll.PushFront(e)
	m.st.Misses++
	m.mu.Unlock()

	var v V
	err := errPanicked
	defer func() { m.settle(e, v, err) }()
	v, err = compute()
	return v, err
}

// resolveJoin books a finished join as a hit or a failed join.
func (m *Memo[K, V]) resolveJoin(failed bool) {
	m.mu.Lock()
	if failed {
		m.st.FailedJoins++
	} else {
		m.st.Hits++
	}
	m.mu.Unlock()
}

// settle publishes a compute's outcome to e's waiters. A failure drops the
// entry; a success makes room for it by evicting from the LRU tail.
func (m *Memo[K, V]) settle(e *entry[K, V], v V, err error) {
	m.mu.Lock()
	e.val, e.err, e.ready = v, err, true
	el := m.m[e.key] // in flight, so neither evicted nor replaced
	if err != nil {
		m.ll.Remove(el)
		delete(m.m, e.key)
	} else {
		for el := m.ll.Back(); el != nil && m.ll.Len() > m.capacity; {
			prev := el.Prev()
			if old := el.Value.(*entry[K, V]); old.ready {
				m.ll.Remove(el)
				delete(m.m, old.key)
				m.st.Evictions++
			}
			el = prev
		}
	}
	m.mu.Unlock()
	close(e.done)
}

// Len reports the number of resident entries, in-flight ones included.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Stats snapshots the counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.st
	st.Builds = st.Misses
	st.Len = m.ll.Len()
	return st
}
