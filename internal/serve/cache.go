package serve

import (
	"container/list"
	"context"

	"sync"

	"repro/internal/flow"
)

// PrefixCache is the heart of fbbd: a bounded, netlist-hash-keyed LRU of
// flow.Prefix with singleflight coalescing. N concurrent requests for the
// same key trigger exactly one prefix build — the losers block on the
// winner's entry — and completed prefixes are retained most-recently-used
// until capacity evicts them. A Prefix is immutable, so an evicted entry
// still in use by an in-flight request simply outlives its cache residency;
// eviction only forgets, it never invalidates.
//
// Failed builds are coalesced like successes (every waiter gets the same
// error) but are not retained: a deterministic failure is cheap to
// recompute, and caching it would let garbage requests evict real
// placements.
type PrefixCache struct {
	capacity int
	onBuild  func(key string)

	mu          sync.Mutex
	ll          *list.List // *centry, front = most recently used
	entries     map[string]*list.Element
	hits        int64
	misses      int64
	joins       int64
	failedJoins int64
	builds      int64
	evictions   int64
}

type centry struct {
	key string
	// done is closed when the build finishes; ready is set (under mu)
	// first, so eviction can distinguish in-flight entries without
	// blocking.
	done  chan struct{}
	ready bool
	pfx   *flow.Prefix
	err   error
}

// CacheStats is a point-in-time snapshot of cache behaviour.
type CacheStats struct {
	// Hits counts Gets that came away with a prefix without building one:
	// served from a completed resident entry, or joined an in-flight build
	// that then succeeded. Misses counts Gets that started a build.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Joins counts Gets that attached to an in-flight build (resolved
	// later into Hits or FailedJoins); FailedJoins counts joins that came
	// away without a prefix — the joined build failed, or the waiter's
	// context expired first. Keeping them out of Hits matters exactly when
	// a bad design is being hammered: N requests coalescing onto one
	// failing build are N wasted waits, not N-1 cache hits, and the
	// router's locality report reads Hits as real cache effectiveness.
	Joins       int64 `json:"joins"`
	FailedJoins int64 `json:"failedJoins"`
	// Builds counts prefix constructions actually run (== Misses; kept
	// separate so the coalescing conformance tests read intent, not
	// accounting coincidence).
	Builds int64 `json:"builds"`
	// Evictions counts completed entries dropped by capacity.
	Evictions int64 `json:"evictions"`
	// Len is the current number of resident entries (in-flight included).
	Len int `json:"len"`
}

// NewPrefixCache returns a cache holding at most capacity completed
// prefixes (minimum 1). onBuild, when non-nil, is invoked once per actual
// build, before it starts — the conformance tests count coalescing with it.
func NewPrefixCache(capacity int, onBuild func(key string)) *PrefixCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PrefixCache{
		capacity: capacity,
		onBuild:  onBuild,
		ll:       list.New(),
		entries:  map[string]*list.Element{},
	}
}

// Get returns the prefix for key, building it with build if no entry is
// resident. Concurrent Gets of one key coalesce onto a single build; a
// caller whose ctx is cancelled while waiting unblocks with ctx's error
// while the build runs on for the others.
func (c *PrefixCache) Get(ctx context.Context, key string, build func() (*flow.Prefix, error)) (*flow.Prefix, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*centry)
		if e.ready {
			// Completed resident entry — failures are never retained, so
			// this is always a real prefix: an unconditional hit.
			c.hits++
			c.mu.Unlock()
			return e.pfx, e.err
		}
		// Joining an in-flight build: the outcome decides the accounting.
		// Counting the join as a hit up front would book a success for
		// every waiter piling onto a failing build.
		c.joins++
		c.mu.Unlock()
		resolve := func(failed bool) {
			c.mu.Lock()
			if failed {
				c.failedJoins++
			} else {
				c.hits++
			}
			c.mu.Unlock()
		}
		select {
		case <-e.done:
			resolve(e.err != nil)
			return e.pfx, e.err
		case <-ctx.Done():
			resolve(true)
			return nil, ctx.Err()
		}
	}
	e := &centry{key: key, done: make(chan struct{})}
	c.entries[key] = c.ll.PushFront(e)
	c.misses++
	c.builds++
	c.mu.Unlock()

	if c.onBuild != nil {
		c.onBuild(key)
	}
	pfx, err := build()

	c.mu.Lock()
	e.pfx, e.err, e.ready = pfx, err, true
	if err != nil {
		if el, ok := c.entries[key]; ok && el.Value.(*centry) == e {
			c.ll.Remove(el)
			delete(c.entries, key)
		}
	} else {
		// Eviction happens only now, on a build that actually produced a
		// placement: a failing build must never cost a resident one its
		// slot (insert-time eviction would let garbage uploads knock
		// warm placements out before their build even ran).
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.done)
	return pfx, err
}

// evictLocked drops completed entries from the LRU tail until at most
// capacity remain. In-flight builds are never evicted (their waiters hold
// the entry); the cache may transiently exceed capacity while many distinct
// keys build at once.
func (c *PrefixCache) evictLocked() {
	for el := c.ll.Back(); el != nil && c.ll.Len() > c.capacity; {
		prev := el.Prev()
		e := el.Value.(*centry)
		if e.ready {
			c.ll.Remove(el)
			delete(c.entries, e.key)
			c.evictions++
		}
		el = prev
	}
}

// Stats snapshots the cache counters.
func (c *PrefixCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Joins:       c.joins,
		FailedJoins: c.failedJoins,
		Builds:      c.builds,
		Evictions:   c.evictions,
		Len:         c.ll.Len(),
	}
}
