package mpi

import (
	"fmt"
	"sort"
)

// Communicator management: Split carves sub-communicators out of an
// existing one, MPI_Comm_split-style. Each sub-communicator gets its own
// context: a tag-space offset that isolates its traffic from the parent's
// and its siblings' (the classic context-id implementation).

// contextStride spaces the tag ranges of communicator contexts. User tags
// must stay below it.
const contextStride = 1 << 16

// Split partitions the communicator: ranks passing the same color form a
// new communicator; ranks are ordered by key (ties by parent rank). A
// negative color returns nil (the rank opts out, like MPI_UNDEFINED).
// Split is collective: every rank of the parent must call it.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Exchange (color, key) with everybody through the parent.
	type ck struct{ color, key, rank int }
	mine := ck{color: color, key: key, rank: c.rank}
	all := make([]ck, c.Size())
	all[c.rank] = mine

	// Simple allgather of the 12-byte tuples via rank 0.
	enc := func(v ck) []byte {
		return []byte{
			byte(v.color), byte(v.color >> 8), byte(v.color >> 16), byte(v.color >> 24),
			byte(v.key), byte(v.key >> 8), byte(v.key >> 16), byte(v.key >> 24),
			byte(v.rank), byte(v.rank >> 8), byte(v.rank >> 16), byte(v.rank >> 24),
		}
	}
	dec := func(b []byte) ck {
		u := func(o int) int {
			return int(int32(uint32(b[o]) | uint32(b[o+1])<<8 | uint32(b[o+2])<<16 | uint32(b[o+3])<<24))
		}
		return ck{color: u(0), key: u(4), rank: u(8)}
	}
	gathered := make([]byte, 12*c.Size())
	if err := c.Gather(0, enc(mine), gathered); err != nil {
		return nil, fmt.Errorf("mpi: split gather: %w", err)
	}
	if err := c.Bcast(0, gathered); err != nil {
		return nil, fmt.Errorf("mpi: split bcast: %w", err)
	}
	for i := 0; i < c.Size(); i++ {
		all[i] = dec(gathered[12*i:])
	}

	if color < 0 {
		return nil, nil
	}
	// Members of my color, ordered by (key, parent rank).
	var members []ck
	for _, v := range all {
		if v.color == color {
			members = append(members, v)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	sub := &Comm{
		m:       c.m,
		actor:   c.actor,
		byNode:  make(map[int]int),
		context: c.context + contextFor(color),
		parent:  c,
	}
	sub.rank = -1
	for i, m := range members {
		node := c.nodes[m.rank]
		sub.nodes = append(sub.nodes, node)
		sub.byNode[node] = i
		if m.rank == c.rank {
			sub.rank = i
		}
	}
	if sub.rank < 0 {
		return nil, fmt.Errorf("mpi: split lost the calling rank")
	}
	return sub.bindColl(), nil
}

// contextFor derives a context offset from a color. Colors must be small
// non-negative integers (0..255), which keeps contexts collision-free.
func contextFor(color int) int { return (color + 1) * contextStride }
