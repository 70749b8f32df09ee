package ps

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// refCache is the map-based cache this package shipped before the cache moved
// onto slot arrays, kept as FuzzCacheMatchesReference's oracle. Its code is
// that cache's, renamed (refCache, refEntry, newRefCache), counting in
// plain ints, and like the cache it takes every per-row slice explicitly.
type refCache struct {
	dim int

	mu      sync.Mutex
	entries map[int]*refEntry // guarded by mu

	// statistics
	syncs, hits, misses, evictions int64 // guarded by mu
}

type refEntry struct {
	value []float32
	// push is the iteration whose gradient push makes the host copy catch up
	// with value.
	push int
	// nextUse is the absolute iteration of the entry's next planned use that
	// will be served from the cache: the entry survives push-visibility
	// eviction until that iteration has been synced. -1 means no promise.
	nextUse int32
}

// newRefCache builds a cache for rows of the given dimension.
func newRefCache(dim int) *refCache {
	if dim <= 0 {
		panic(fmt.Sprintf("ps: invalid cache dim=%d", dim))
	}
	return &refCache{dim: dim, entries: make(map[int]*refEntry)}
}

// checkShape panics unless rows holds one c.dim-wide row per id and there
// are as many fresh flags and next-use hints as ids.
func (c *refCache) checkShape(op string, ids []int, rows *tensor.Matrix, flags, hints int) {
	if rows.Rows != len(ids) || rows.Cols != c.dim || flags != len(ids) || hints != len(ids) {
		panic(fmt.Sprintf("ps: %s %d ids vs %dx%d rows (dim %d), %d fresh flags, %d hints",
			op, len(ids), rows.Rows, rows.Cols, c.dim, flags, hints))
	}
}

// Publish stores the post-update values of the rows trained at iteration
// pushIter — the iteration whose gradient push will make the host copy catch
// up with the cached value. nextUse[i] is the retention promise for ids[i]
// (see refEntry.nextUse). Existing entries are overwritten.
func (c *refCache) Publish(ids []int, rows *tensor.Matrix, pushIter int, nextUse []int32) {
	c.checkShape("Publish", ids, rows, len(ids), len(nextUse))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ids {
		e, ok := c.entries[id]
		if !ok {
			e = &refEntry{value: make([]float32, c.dim)}
			c.entries[id] = e
		}
		copy(e.value, rows.Row(i))
		e.push = pushIter
		e.nextUse = nextUse[i]
	}
}

// Sync prepares the pre-fetched rows of batch iter for training; see
// cache.sync, whose contract this is.
func (c *refCache) Sync(applied, iter int, ids []int, rows *tensor.Matrix, fresh []bool, nextUse []int32) (patched int, err error) {
	c.checkShape("Sync", ids, rows, len(fresh), len(nextUse))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ids {
		e, ok := c.entries[id]
		if !ok {
			if !fresh[i] {
				return patched, fmt.Errorf("%w: row %d pinned for iteration %d has no cache entry", errLookaheadMiss, id, iter)
			}
			continue
		}
		e.nextUse = nextUse[i]
		if fresh[i] && e.push < applied {
			continue
		}
		copy(rows.Row(i), e.value)
		patched++
	}
	evicted := 0
	for id, e := range c.entries {
		if e.push < applied && int(e.nextUse) <= iter { // −1 (no promise) is below every iteration
			delete(c.entries, id)
			evicted++
		}
	}
	c.syncs++
	c.hits += int64(patched)
	c.misses += int64(len(ids) - patched)
	c.evictions += int64(evicted)
	return patched, nil
}

// Len returns the number of cached rows.
func (c *refCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup returns a copy of the cached row and whether it was present.
func (c *refCache) Lookup(id int) ([]float32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	out := make([]float32, c.dim)
	copy(out, e.value)
	return out, true
}

// Stats returns a consistent snapshot of the cache counters.
func (c *refCache) Stats() cacheCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheCounts{Syncs: c.syncs, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// cacheCounts is one cache's statistics: Sync calls, patched rows (hits),
// unpatched rows (misses) and evicted entries.
type cacheCounts struct {
	Syncs, Hits, Misses, Evictions int64
}

// countsOf reads c's statistics from its counters.
func countsOf(c *cache) cacheCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheCounts{Syncs: c.syncs.Value(), Hits: c.hits.Value(), Misses: c.misses.Value(), Evictions: c.evictions.Value()}
}
