package server

import (
	"container/list"
	"context"
	"errors"
	"strings"
	"sync"
)

// lru is the server's one cache mechanism, shared by the candidate cache
// (lru[cachedCandidates]) and the plan cache (lru[*executor.Plan]): a map
// bounded at a fixed capacity with LRU eviction — hits move an entry to the
// front of the recency list, a store past capacity evicts from the back, so
// hot keys survive bursts of one-off ones. Values are shared with every
// reader and must not be mutated once stored.
//
// Concurrent misses on one key coalesce (singleflight): a single leader
// builds while the rest wait and share the result, so a cold cache under a
// burst of identical requests does the work once, not N times. Build
// errors are returned to everyone in the flight but never stored: caching
// them would spend slots on garbage requests.
type lru[V any] struct {
	mu sync.Mutex
	// capacity bounds the entry count; 0 disables the cache (see disable).
	capacity int
	entries  map[string]*list.Element // value: *lruEntry[V]
	// order is the recency list: front = most recently used.
	order   *list.List
	flights map[flightKey]*lruFlight[V]
	// hits and misses instrument the cache for the response debug block
	// and tests. Joining an in-progress flight counts as a hit (the work is
	// shared, not repeated).
	hits, misses uint64
}

// lruEntry is one stored value. Snapshots hand out copies of it.
type lruEntry[V any] struct {
	key string
	val V
	// gen counts in-place rewrites of this entry (replace, or a store onto
	// a live key). Asynchronous writers snapshot it and give up when it
	// moved — optimistic concurrency instead of holding mu across their
	// work.
	gen uint64
}

// flightKey names one singleflight: the cache key, narrowed by the
// caller's scope.
type flightKey struct{ key, scope string }

type lruFlight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errAbandoned is what flight waiters observe when the leader's build
// panicked instead of returning.
var errAbandoned = errors.New("server: cache fill did not complete")

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		flights:  make(map[flightKey]*lruFlight[V]),
	}
}

// disable drops every entry and turns the cache off: from then on fetch
// builds directly, without coalescing, and stores nothing.
func (c *lru[V]) disable() {
	c.mu.Lock()
	c.capacity = 0
	c.entries = make(map[string]*list.Element)
	c.order.Init()
	c.mu.Unlock()
}

// fetch returns the value for key, building it on a miss. hit reports
// whether this call reused existing or in-flight work (false only for the
// leader of a fresh build). A waiter whose ctx expires stops waiting and
// returns ctx.Err(); the leader's build is never canceled — its result
// still lands in the cache for live requests.
//
// scope narrows the singleflight without touching the key: only calls with
// equal key and scope share a build. The candidate cache passes the
// dataset's delta version — requests admitted across an append must not
// share a build, since the earlier leader's extraction may predate the
// appended rows — while its key stays delta-free, so stored entries
// survive appends and are patched in place.
//
// validate, if non-nil, is consulted under mu at store time and the value
// is kept only if it returns true. Stores, replaces and removals all
// serialize on mu, so a caller re-checking its data versions there drops a
// build that raced a data change atomically, with no window at all.
func (c *lru[V]) fetch(ctx context.Context, key, scope string, validate func() bool, build func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if c.capacity == 0 {
		c.mu.Unlock()
		val, err = build()
		return val, false, err
	}
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		val = el.Value.(*lruEntry[V]).val
		c.mu.Unlock()
		return val, true, nil
	}
	fk := flightKey{key, scope}
	if f, ok := c.flights[fk]; ok {
		c.hits++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return val, true, ctx.Err()
		}
	}
	c.misses++
	f := &lruFlight[V]{done: make(chan struct{}), err: errAbandoned}
	c.flights[fk] = f
	// The bookkeeping runs in a defer so a panicking build (which net/http
	// recovers per request) still unregisters the flight and releases its
	// waiters — with errAbandoned, since f.err was never overwritten —
	// instead of wedging the key forever.
	defer func() {
		c.mu.Lock()
		delete(c.flights, fk)
		if f.err == nil && (validate == nil || validate()) {
			c.storeLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	c.mu.Unlock()

	val, err = build()
	f.val, f.err = val, err
	return val, false, err
}

// storeLocked installs val at the front of the recency list and evicts
// past capacity. A live entry (a flight of another scope stored first) is
// refreshed in place. Caller holds mu.
func (c *lru[V]) storeLocked(key string, val V) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry[V])
		e.val = val
		e.gen++
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for len(c.entries) > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*lruEntry[V]).key)
	}
}

// stats reports (hits, misses) for the debug block and tests.
func (c *lru[V]) stats() (uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// remove drops one entry.
func (c *lru[V]) remove(key string) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// removePrefix drops every entry whose key starts with prefix.
func (c *lru[V]) removePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		if e := el.Value.(*lruEntry[V]); strings.HasPrefix(e.key, prefix) {
			c.order.Remove(el)
			delete(c.entries, e.key)
		}
	}
}

// snapshot copies the entries whose keys start with prefix, most recently
// used first, without touching recency or counters. A caller works off the
// copies outside mu and writes back through replace, so its cost is never
// paid under the cache lock.
func (c *lru[V]) snapshot(prefix string) []lruEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []lruEntry[V]
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*lruEntry[V]); strings.HasPrefix(e.key, prefix) {
			out = append(out, *e)
		}
	}
	return out
}

// snapshotOne re-reads a single entry by key, for a writer whose
// generation-guarded replace lost a race and needs fresh state to retry.
func (c *lru[V]) snapshotOne(key string) (lruEntry[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return lruEntry[V]{}, false
	}
	return *el.Value.(*lruEntry[V]), true
}

// replace installs val for key iff the entry still exists and its
// generation is still gen (optimistic concurrency: losing the race means a
// newer write already landed). It reports whether the write landed and, if
// so, the entry's new generation.
func (c *lru[V]) replace(key string, gen uint64, val V) (bool, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false, 0
	}
	e := el.Value.(*lruEntry[V])
	if e.gen != gen {
		return false, 0
	}
	e.val = val
	e.gen++
	return true, e.gen
}
