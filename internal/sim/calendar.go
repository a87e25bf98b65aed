package sim

import (
	"math/bits"

	"flexran/internal/lte"
)

// nodeSet is a bitset over node indices (Sim.Nodes positions): the
// engine's awake set. 4,096 nodes take 512 B.
type nodeSet []uint64

func newNodeSet(n int) nodeSet { return make(nodeSet, (n+63)/64) }

func (b nodeSet) add(i int32)    { b[i>>6] |= 1 << (i & 63) }
func (b nodeSet) remove(i int32) { b[i>>6] &^= 1 << (i & 63) }
func (b nodeSet) has(i int32) bool {
	return b[i>>6]&(1<<(i&63)) != 0
}

// appendTo appends the members to dst in ascending index order.
func (b nodeSet) appendTo(dst []int32) []int32 {
	for w, word := range b {
		for word != 0 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// calEntry files one sleeping node under its wake subframe.
type calEntry struct {
	wake lte.Subframe
	node int32
}

func (a calEntry) before(b calEntry) bool {
	return a.wake < b.wake || (a.wake == b.wake && a.node < b.node)
}

// calendar is the wake calendar: an indexed binary min-heap of sleeping
// nodes keyed (wake, node index), holding each node at most once. pos
// records every node's heap slot (-1 when not filed), so an early wake
// takes a node out in O(log n). It is typed rather than built on
// container/heap, whose interface boxing would allocate per operation.
type calendar struct {
	h   []calEntry
	pos []int32
}

func newCalendar(nodes int) calendar {
	c := calendar{pos: make([]int32, nodes)}
	for i := range c.pos {
		c.pos[i] = -1
	}
	return c
}

// push files node under wake. The node must not be filed already.
func (c *calendar) push(node int32, wake lte.Subframe) {
	c.h = append(c.h, calEntry{wake: wake, node: node})
	c.up(len(c.h) - 1)
}

// remove takes node out of the calendar; a node not filed is a no-op.
func (c *calendar) remove(node int32) {
	if k := c.pos[node]; k >= 0 {
		c.removeAt(int(k))
	}
}

// popDue moves every node filed under a wake at or before sf into set.
func (c *calendar) popDue(sf lte.Subframe, set nodeSet) {
	for len(c.h) > 0 && c.h[0].wake <= sf {
		set.add(c.h[0].node)
		c.removeAt(0)
	}
}

func (c *calendar) removeAt(k int) {
	c.pos[c.h[k].node] = -1
	last := len(c.h) - 1
	if k != last {
		c.h[k] = c.h[last]
		c.pos[c.h[k].node] = int32(k)
	}
	c.h = c.h[:last]
	if k != last && !c.down(k) {
		c.up(k)
	}
}

func (c *calendar) up(k int) {
	e := c.h[k]
	for k > 0 {
		p := (k - 1) / 2
		if !e.before(c.h[p]) {
			break
		}
		c.set(k, c.h[p])
		k = p
	}
	c.set(k, e)
}

// down sifts slot k toward the leaves and reports whether it moved.
func (c *calendar) down(k int) bool {
	e, start := c.h[k], k
	for {
		l := 2*k + 1
		if l >= len(c.h) {
			break
		}
		m := l
		if r := l + 1; r < len(c.h) && c.h[r].before(c.h[l]) {
			m = r
		}
		if !c.h[m].before(e) {
			break
		}
		c.set(k, c.h[m])
		k = m
	}
	c.set(k, e)
	return k != start
}

func (c *calendar) set(k int, e calEntry) {
	c.h[k] = e
	c.pos[e.node] = int32(k)
}
