package flow

import "sync"

// Cache memoizes keyed computations: for each key the compute function runs
// exactly once, concurrent callers of an in-flight key block for its result,
// and the value (or error — flow computations are deterministic, so a
// failure is permanent for the key) is retained for every later caller.
// The zero value is ready to use.
type Cache[V any] struct {
	m sync.Map // key -> *cacheEntry[V]
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Do returns the cached value for key, running compute first if this is the
// key's first caller.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error) {
	v, _ := c.m.LoadOrStore(key, &cacheEntry[V]{})
	e := v.(*cacheEntry[V])
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// Len reports the number of keys resident in the cache.
func (c *Cache[V]) Len() int {
	n := 0
	c.m.Range(func(_, _ any) bool { n++; return true })
	return n
}
