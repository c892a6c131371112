package enum

import "sortsynth/internal/state"

// flatEmpty marks an unoccupied slot. Stored values are node IDs (≥ 0),
// so the extreme negative value can never collide with a real entry.
const flatEmpty = int32(-1 << 31)

type flatSlot struct {
	key state.Key128
	val int32
}

// flatTable is the search's dedup index: an open-addressing hash table
// from state.Key128 to node ID with linear probing and power-of-two
// capacity. The key is already a high-quality 128-bit hash, so the low
// bits of Key128.Lo index directly — no re-hashing, no per-probe
// interface or allocation cost, and one cache line per probe in the
// common hit-on-first-slot case, unlike the runtime map which must treat
// the 16-byte key as opaque bytes. Growth doubles the slot array and
// rehashes in place (DESIGN.md §10); the load factor is kept ≤ 3/4.
type flatTable struct {
	slots []flatSlot
	mask  uint64
	used  int
	limit int // growth threshold: 3/4 of capacity
}

// newFlatTable returns a table pre-sized for about hint entries.
func newFlatTable(hint int) *flatTable {
	capacity := 16
	for capacity*3 < hint*4 {
		capacity *= 2
	}
	t := &flatTable{}
	t.alloc(capacity)
	return t
}

func (t *flatTable) alloc(capacity int) {
	t.slots = make([]flatSlot, capacity)
	for i := range t.slots {
		t.slots[i].val = flatEmpty
	}
	t.mask = uint64(capacity - 1)
	t.limit = capacity / 4 * 3
}

// count returns the number of stored entries.
func (t *flatTable) count() int { return t.used }

// get returns the value stored under k.
func (t *flatTable) get(k state.Key128) (int32, bool) {
	for i := k.Lo & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val == flatEmpty {
			return 0, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// getOrPut returns the existing value under k, or stores v and reports
// inserted=true.
func (t *flatTable) getOrPut(k state.Key128, v int32) (int32, bool) {
	if t.used >= t.limit {
		t.grow()
	}
	for i := k.Lo & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.val == flatEmpty {
			s.key = k
			s.val = v
			t.used++
			return v, true
		}
		if s.key == k {
			return s.val, false
		}
	}
}

// grow doubles the capacity and rehashes every entry. With linear probing
// and a power-of-two capacity each key lands in its home run again, so a
// single pass over the old slots suffices.
func (t *flatTable) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	t.used = 0
	for i := range old {
		if old[i].val != flatEmpty {
			t.setFresh(old[i].key, old[i].val)
		}
	}
}

// setFresh inserts a key known to be absent (rehash path: no equality
// checks needed, every slot visited is either empty or a different key).
func (t *flatTable) setFresh(k state.Key128, v int32) {
	i := k.Lo & t.mask
	for t.slots[i].val != flatEmpty {
		i = (i + 1) & t.mask
	}
	t.slots[i] = flatSlot{key: k, val: v}
	t.used++
}
