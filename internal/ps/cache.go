// Package ps implements the paper's TT-based pipeline training system (§V):
// a parameter-server architecture where host memory holds the embedding
// tables that do not fit on the device, a pre-fetch queue and a gradient
// queue overlap server-side work with worker-side compute, and a worker-side
// embedding cache resolves the read-after-write conflict that pre-fetching
// introduces (Figure 10).
package ps

import (
	"fmt"
	"sync"

	"repro/internal/embedding"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// cache is the GPU-side embedding cache of §V-B. It keeps the most recent
// worker-side value of every embedding row that still has a gradient push in
// flight, so pre-fetched (possibly stale) rows can be patched before use, and
// of every row the batch's lookahead plan promises to serve from the cache
// instead of gathering again.
//
// Entries expire by push visibility restricted by the plan's promises: an
// entry is dropped once a gathered batch proves the host copy has absorbed
// its update AND no planned use is outstanding. Unlike the paper's LC
// countdown, whose eviction point shifts with how the server and worker
// goroutines interleave (a drain barrier, a stalled server or an aborted
// batch all move it), this is a pure function of the gather order, so every
// schedule — pipelined, sequential, barrier-interrupted, resumed from a
// checkpoint — syncs bit-identical values.
//
// Storage is one slot per live entry in dense arrays, so the sweep walks
// contiguous memory and nothing is allocated per row; an embedding.Index maps
// row ids to slots. The index has no delete: a sweep that evicts
// swap-removes the dropped slots and rebuilds it over the survivors.
type cache struct {
	dim int

	mu sync.Mutex
	// Slot s holds row ids[s]: its value values[s·dim:(s+1)·dim], push[s],
	// the iteration whose gradient push makes the host copy catch up with the
	// value, and nextUse[s], the absolute iteration of the entry's next
	// planned use that will be served from the cache — the entry survives
	// push-visibility eviction until that iteration has been synced; −1 means
	// no promise. All four are len(ids) slots long.
	ids     []int           // guarded by mu
	push    []int           // guarded by mu
	nextUse []int32         // guarded by mu
	values  []float32       // guarded by mu
	index   embedding.Index // row id → slot over ids; guarded by mu

	// Sync statistics: calls, patched rows (hits), unpatched rows (misses)
	// and evicted entries. newCache gives the cache counters of its own; the
	// pipeline points all its caches at the same four, which then read the
	// cross-table sum behind Stats().
	syncs, hits, misses, evictions *obs.Counter // guarded by mu
}

// attachCounters points this cache's statistics at externally owned
// counters.
func (c *cache) attachCounters(syncs, hits, misses, evictions *obs.Counter) {
	c.mu.Lock()
	c.syncs, c.hits, c.misses, c.evictions = syncs, hits, misses, evictions
	c.mu.Unlock()
}

// newCache builds a cache for rows of the given dimension.
func newCache(dim int) *cache {
	if dim <= 0 {
		panic(fmt.Sprintf("ps: invalid cache dim=%d", dim))
	}
	return &cache{dim: dim, syncs: new(obs.Counter), hits: new(obs.Counter),
		misses: new(obs.Counter), evictions: new(obs.Counter)}
}

// checkShape panics unless rows holds one c.dim-wide row per id and there
// are as many fresh flags and next-use hints as ids.
func (c *cache) checkShape(op string, ids []int, rows *tensor.Matrix, flags, hints int) {
	if rows.Rows != len(ids) || rows.Cols != c.dim || flags != len(ids) || hints != len(ids) {
		panic(fmt.Sprintf("ps: %s %d ids vs %dx%d rows (dim %d), %d fresh flags, %d hints",
			op, len(ids), rows.Rows, rows.Cols, c.dim, flags, hints))
	}
}

// row is slot s's value.
//
//elrec:locked mu called from the cache's locked methods only
func (c *cache) row(s int) []float32 { return c.values[s*c.dim : (s+1)*c.dim] }

// publish stores the post-update values of the rows trained at iteration
// pushIter — the iteration whose gradient push will make the host copy catch
// up with the cached value. nextUse[i] is the retention promise for ids[i]
// (see cache.nextUse). Existing entries are overwritten.
func (c *cache) publish(ids []int, rows *tensor.Matrix, pushIter int, nextUse []int32) {
	c.checkShape("publish", ids, rows, len(ids), len(nextUse)) // publish takes no fresh flags
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reserve(len(c.ids) + len(ids))
	for i, id := range ids {
		s, fresh := c.index.IDOf(id, len(c.ids))
		if fresh { // s == len(c.ids): reserve left room for it
			c.ids, c.push, c.nextUse = c.ids[:s+1], c.push[:s+1], c.nextUse[:s+1]
			c.values = c.values[:(s+1)*c.dim]
			c.ids[s] = id
		}
		copy(c.row(s), rows.Row(i))
		c.push[s] = pushIter
		c.nextUse[s] = nextUse[i]
	}
}

// reserve makes room for n live entries: slot arrays of capacity n and an
// index at most half full. Once both have grown to the largest live set
// seen, it only compares.
//
//elrec:locked mu called from publish under the lock
func (c *cache) reserve(n int) {
	if n > cap(c.ids) {
		c.grow(n)
	}
	if n > c.index.Slots()/2 {
		c.reindex(n)
	}
}

// grow moves the live slots into arrays with room for at least n entries.
//
//elrec:locked mu called from reserve under the lock
func (c *cache) grow(n int) {
	n = max(n, 2*cap(c.ids))
	c.ids = append(make([]int, 0, n), c.ids...)
	c.push = append(make([]int, 0, n), c.push...)
	c.nextUse = append(make([]int32, 0, n), c.nextUse...)
	c.values = append(make([]float32, 0, n*c.dim), c.values...)
}

// reindex rebuilds the id → slot index over the live slots, sized for n
// entries.
//
//elrec:locked mu called from publish and sync under the lock
func (c *cache) reindex(n int) {
	c.index.Begin(n)
	for s, id := range c.ids {
		c.index.IDOf(id, s)
	}
}

// sync prepares the pre-fetched rows of batch iter for training. applied is
// the number of gradient pushes already visible in the host tables when the
// batch was gathered. Rows with fresh[i] true were gathered from the host
// store and are patched from entries the gather cannot have seen (push ≥
// applied: the read-after-write fix of Figure 10); rows with fresh[i] false
// were skipped by the gather and are served wholly from the cache — the
// plan only skips rows published earlier under a promise that the sweep
// below honours, so a missing entry is errLookaheadMiss.
// Entries of the batch's rows adopt nextUse[i] as their new promise.
//
// A hit means the cache supplied bits the host gather did not: an entry
// whose push is host-visible is not copied onto a gathered row (the row
// already carries the identical bits) and counts as a miss.
//
// The sweep then drops every entry whose push is host-visible and whose
// promise is absent or at or before iter — Belady's "farthest (or no) next
// use" with an exact future access set, degenerating to plain push
// visibility under one-batch windows, whose every promise is −1. Serving
// runs first so an entry promised to this batch is served, never evicted
// unserved. The sweep costs O(live entries) over the slot arrays; when it
// evicted, the index is rebuilt, sized for the survivors plus this batch's
// rows (what the step's publish may add).
func (c *cache) sync(applied, iter int, ids []int, rows *tensor.Matrix, fresh []bool, nextUse []int32) (patched int, err error) {
	c.checkShape("sync", ids, rows, len(fresh), len(nextUse))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ids {
		s, ok := c.index.Find(id)
		if !ok {
			if !fresh[i] {
				return patched, fmt.Errorf("%w: row %d pinned for iteration %d has no cache entry", errLookaheadMiss, id, iter)
			}
			continue
		}
		c.nextUse[s] = nextUse[i]
		if fresh[i] && c.push[s] < applied {
			continue
		}
		copy(rows.Row(i), c.row(s))
		patched++
	}
	evicted := c.sweep(applied, iter)
	if evicted > 0 {
		c.reindex(len(c.ids) + len(ids))
	}
	c.syncs.Inc()
	c.hits.Add(int64(patched))
	c.misses.Add(int64(len(ids) - patched))
	c.evictions.Add(int64(evicted))
	return patched, nil
}

// sweep swap-removes every entry whose push is host-visible and whose
// promise is absent or at or before iter, and returns how many went. It
// leaves the index stale; the caller rebuilds it.
//
//elrec:locked mu called from sync under the lock
func (c *cache) sweep(applied, iter int) int {
	live := len(c.ids)
	for s := 0; s < live; {
		if c.push[s] >= applied || int(c.nextUse[s]) > iter { // −1 (no promise) is below every iteration
			s++
			continue
		}
		live--
		c.ids[s], c.push[s], c.nextUse[s] = c.ids[live], c.push[live], c.nextUse[live]
		copy(c.row(s), c.row(live))
	}
	evicted := len(c.ids) - live
	c.ids, c.push, c.nextUse = c.ids[:live], c.push[:live], c.nextUse[:live]
	c.values = c.values[:live*c.dim]
	return evicted
}

// Len returns the number of cached rows.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ids)
}
