// Package maps implements the eBPF map types the paper's network
// functions rely on: arrays, hash maps, LRU hash maps, longest-prefix
// match tries, per-CPU arrays and perf event arrays.
//
// Maps are the only persistent state shared between BPF program
// invocations and between a program and user space (§2.1 of the
// paper). Every map is backed by a contiguous arena of value slots so
// that programs can hold stable pointers into map memory, mirroring
// how the kernel hands out pointers to map values.
package maps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Type enumerates the supported map types.
type Type int

// Supported map types. The numeric values match the kernel's
// bpf_map_type enum for the types we implement.
const (
	Unspecified    Type = 0
	Hash           Type = 1
	Array          Type = 2
	PerfEventArray Type = 4
	PerCPUArray    Type = 6
	LRUHash        Type = 9
	LPMTrie        Type = 11
)

func (t Type) String() string {
	switch t {
	case Hash:
		return "hash"
	case Array:
		return "array"
	case PerfEventArray:
		return "perf_event_array"
	case PerCPUArray:
		return "percpu_array"
	case LRUHash:
		return "lru_hash"
	case LPMTrie:
		return "lpm_trie"
	default:
		return fmt.Sprintf("map_type(%d)", int(t))
	}
}

// Update flags, matching the kernel's BPF_ANY / BPF_NOEXIST /
// BPF_EXIST.
const (
	UpdateAny     uint64 = 0
	UpdateNoExist uint64 = 1
	UpdateExist   uint64 = 2
)

// Errors returned by map operations.
var (
	ErrKeyNotExist   = errors.New("maps: key does not exist")
	ErrKeyExist      = errors.New("maps: key already exists")
	ErrFull          = errors.New("maps: map is full")
	ErrKeySize       = errors.New("maps: wrong key size")
	ErrValueSize     = errors.New("maps: wrong value size")
	ErrNotSupported  = errors.New("maps: operation not supported for this map type")
	ErrBadFlags      = errors.New("maps: invalid update flags")
	ErrBadSpec       = errors.New("maps: invalid map spec")
	ErrBadPrefixLen  = errors.New("maps: LPM prefix length exceeds key size")
	ErrZeroMaxEntr   = errors.New("maps: max_entries must be positive")
	errSlotExhausted = errors.New("maps: internal slot exhaustion")
)

// Spec describes a map before creation, in the style of
// cilium/ebpf's MapSpec.
type Spec struct {
	Name       string
	Type       Type
	KeySize    uint32 // bytes; LPMTrie keys start with a 4-byte prefix length
	ValueSize  uint32 // bytes
	MaxEntries uint32
}

func (s Spec) validate() error {
	if s.MaxEntries == 0 {
		return fmt.Errorf("%w (map %q)", ErrZeroMaxEntr, s.Name)
	}
	switch s.Type {
	case Array, PerCPUArray:
		if s.KeySize != 4 {
			return fmt.Errorf("%w: %s requires 4-byte keys", ErrBadSpec, s.Type)
		}
	case Hash, LRUHash:
		if s.KeySize == 0 {
			return fmt.Errorf("%w: hash maps need a key", ErrBadSpec)
		}
	case LPMTrie:
		if s.KeySize < 5 {
			return fmt.Errorf("%w: LPM keys need 4 prefix bytes plus data", ErrBadSpec)
		}
	case PerfEventArray:
		// Key/value sizes are ignored; the ring stores raw samples.
	default:
		return fmt.Errorf("%w: unknown type %v", ErrBadSpec, s.Type)
	}
	if s.Type != PerfEventArray && s.ValueSize == 0 {
		return fmt.Errorf("%w: zero value size", ErrBadSpec)
	}
	return nil
}

// Map is a created map. All operations are safe for concurrent use.
type Map struct {
	spec Spec

	mu sync.RWMutex
	// arena backs all value slots contiguously:
	// slot i occupies arena[i*stride : i*stride+ValueSize].
	arena  []byte
	stride int

	// Hash/LRU state.
	index map[string]int // key bytes -> slot
	keys  []string       // slot -> key ("" when free)
	free  []int          // free slot indices
	lru   *lruList       // LRUHash access order

	// LPM state.
	trie *trieNode

	// Perf state.
	rings       []*perfRing
	subscribers []chan struct{}
}

// New creates a map from spec.
func New(spec Spec) (*Map, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m := &Map{spec: spec}
	switch spec.Type {
	case Array, PerCPUArray:
		m.stride = int(spec.ValueSize)
		m.arena = make([]byte, int(spec.MaxEntries)*m.stride)
	case Hash, LRUHash:
		m.stride = int(spec.ValueSize)
		m.arena = make([]byte, int(spec.MaxEntries)*m.stride)
		m.index = make(map[string]int, spec.MaxEntries)
		m.keys = make([]string, spec.MaxEntries)
		m.free = make([]int, 0, spec.MaxEntries)
		for i := int(spec.MaxEntries) - 1; i >= 0; i-- {
			m.free = append(m.free, i)
		}
		if spec.Type == LRUHash {
			m.lru = newLRUList(int(spec.MaxEntries))
		}
	case LPMTrie:
		m.stride = int(spec.ValueSize)
		m.arena = make([]byte, int(spec.MaxEntries)*m.stride)
		m.index = make(map[string]int, spec.MaxEntries)
		m.keys = make([]string, spec.MaxEntries)
		m.free = make([]int, 0, spec.MaxEntries)
		for i := int(spec.MaxEntries) - 1; i >= 0; i-- {
			m.free = append(m.free, i)
		}
		m.trie = &trieNode{}
	case PerfEventArray:
		m.rings = make([]*perfRing, spec.MaxEntries)
		for i := range m.rings {
			m.rings[i] = newPerfRing(defaultRingCapacity)
		}
	}
	return m, nil
}

// MustNew is New for tests and static configuration; it panics on error.
func MustNew(spec Spec) *Map {
	m, err := New(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// Spec returns the creation spec.
func (m *Map) Spec() Spec { return m.spec }

// Name returns the map name.
func (m *Map) Name() string { return m.spec.Name }

// Arena exposes the value backing store. The VM maps it as a memory
// region so programs can dereference pointers returned by
// map_lookup_elem. Callers must not resize it.
func (m *Map) Arena() []byte { return m.arena }

// LookupSlot returns the arena offset of the value for key, or
// ok=false. This is the program-facing lookup: the returned offset is
// stable for the lifetime of the entry.
func (m *Map) LookupSlot(key []byte) (offset int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot, ok := m.lookupLocked(key)
	if !ok {
		return 0, false
	}
	if m.spec.Type == LRUHash {
		m.lru.touch(slot)
	}
	return slot * m.stride, true
}

// Lookup copies the value for key into a fresh slice. This is the
// user-space API.
func (m *Map) Lookup(key []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot, ok := m.lookupLocked(key)
	if !ok {
		return nil, ErrKeyNotExist
	}
	if m.spec.Type == LRUHash {
		m.lru.touch(slot)
	}
	out := make([]byte, m.spec.ValueSize)
	copy(out, m.slotBytes(slot))
	return out, nil
}

// LookupUint64 reads the value for key as a little-endian uint64.
// The value size must be exactly 8 bytes.
func (m *Map) LookupUint64(key []byte) (uint64, error) {
	if m.spec.ValueSize != 8 {
		return 0, ErrValueSize
	}
	v, err := m.Lookup(key)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(v), nil
}

func (m *Map) lookupLocked(key []byte) (slot int, ok bool) {
	switch m.spec.Type {
	case Array, PerCPUArray:
		if len(key) != 4 {
			return 0, false
		}
		idx := binary.LittleEndian.Uint32(key)
		if idx >= m.spec.MaxEntries {
			return 0, false
		}
		return int(idx), true
	case Hash, LRUHash:
		if uint32(len(key)) != m.spec.KeySize {
			return 0, false
		}
		slot, ok = m.index[string(key)]
		return slot, ok
	case LPMTrie:
		return m.lpmLookupLocked(key)
	default:
		return 0, false
	}
}

// Update inserts or replaces the value for key subject to flags.
func (m *Map) Update(key, value []byte, flags uint64) error {
	if m.spec.Type == PerfEventArray {
		return ErrNotSupported
	}
	if uint32(len(value)) != m.spec.ValueSize {
		return ErrValueSize
	}
	if flags > UpdateExist {
		return ErrBadFlags
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	switch m.spec.Type {
	case Array, PerCPUArray:
		if len(key) != 4 {
			return ErrKeySize
		}
		idx := binary.LittleEndian.Uint32(key)
		if idx >= m.spec.MaxEntries {
			return ErrKeyNotExist
		}
		if flags == UpdateNoExist {
			// Array elements always exist.
			return ErrKeyExist
		}
		copy(m.slotBytes(int(idx)), value)
		return nil

	case Hash, LRUHash:
		if uint32(len(key)) != m.spec.KeySize {
			return ErrKeySize
		}
		ks := string(key)
		slot, exists := m.index[ks]
		switch {
		case exists && flags == UpdateNoExist:
			return ErrKeyExist
		case !exists && flags == UpdateExist:
			return ErrKeyNotExist
		}
		if !exists {
			var err error
			slot, err = m.allocSlotLocked()
			if err != nil {
				return err
			}
			m.index[ks] = slot
			m.keys[slot] = ks
			if m.lru != nil {
				m.lru.push(slot)
			}
		} else if m.lru != nil {
			m.lru.touch(slot)
		}
		copy(m.slotBytes(slot), value)
		return nil

	case LPMTrie:
		return m.lpmUpdateLocked(key, value, flags)
	}
	return ErrNotSupported
}

// allocSlotLocked pops a free slot, evicting the least recently used
// entry for LRU maps when full.
func (m *Map) allocSlotLocked() (int, error) {
	if len(m.free) == 0 {
		if m.lru == nil {
			return 0, ErrFull
		}
		victim, ok := m.lru.evict()
		if !ok {
			return 0, errSlotExhausted
		}
		delete(m.index, m.keys[victim])
		m.keys[victim] = ""
		return victim, nil
	}
	slot := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return slot, nil
}

// Delete removes key.
func (m *Map) Delete(key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.spec.Type {
	case Array, PerCPUArray:
		return ErrNotSupported
	case Hash, LRUHash:
		if uint32(len(key)) != m.spec.KeySize {
			return ErrKeySize
		}
		ks := string(key)
		slot, ok := m.index[ks]
		if !ok {
			return ErrKeyNotExist
		}
		delete(m.index, ks)
		m.keys[slot] = ""
		m.free = append(m.free, slot)
		if m.lru != nil {
			m.lru.remove(slot)
		}
		clearBytes(m.slotBytes(slot))
		return nil
	case LPMTrie:
		return m.lpmDeleteLocked(key)
	default:
		return ErrNotSupported
	}
}

// Len returns the number of live entries.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	switch m.spec.Type {
	case Array, PerCPUArray:
		return int(m.spec.MaxEntries)
	case Hash, LRUHash, LPMTrie:
		return len(m.index)
	default:
		return 0
	}
}

// Iterate calls fn for each key/value pair. fn receives copies.
// Iteration order is unspecified. Returning false stops early.
func (m *Map) Iterate(fn func(key, value []byte) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	switch m.spec.Type {
	case Array, PerCPUArray:
		var key [4]byte
		for i := uint32(0); i < m.spec.MaxEntries; i++ {
			binary.LittleEndian.PutUint32(key[:], i)
			v := make([]byte, m.spec.ValueSize)
			copy(v, m.slotBytes(int(i)))
			if !fn(append([]byte(nil), key[:]...), v) {
				return
			}
		}
	case Hash, LRUHash, LPMTrie:
		for ks, slot := range m.index {
			v := make([]byte, m.spec.ValueSize)
			copy(v, m.slotBytes(slot))
			if !fn([]byte(ks), v) {
				return
			}
		}
	}
}

func (m *Map) slotBytes(slot int) []byte {
	return m.arena[slot*m.stride : slot*m.stride+int(m.spec.ValueSize)]
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// lruList tracks access order over slot numbers with an intrusive
// doubly-linked list; index -1 terminates.
type lruList struct {
	next, prev []int
	head, tail int // head = most recent
	present    []bool
}

func newLRUList(n int) *lruList {
	l := &lruList{
		next:    make([]int, n),
		prev:    make([]int, n),
		present: make([]bool, n),
		head:    -1,
		tail:    -1,
	}
	for i := range l.next {
		l.next[i], l.prev[i] = -1, -1
	}
	return l
}

func (l *lruList) push(slot int) {
	l.present[slot] = true
	l.prev[slot] = -1
	l.next[slot] = l.head
	if l.head >= 0 {
		l.prev[l.head] = slot
	}
	l.head = slot
	if l.tail < 0 {
		l.tail = slot
	}
}

func (l *lruList) remove(slot int) {
	if !l.present[slot] {
		return
	}
	l.present[slot] = false
	if l.prev[slot] >= 0 {
		l.next[l.prev[slot]] = l.next[slot]
	} else {
		l.head = l.next[slot]
	}
	if l.next[slot] >= 0 {
		l.prev[l.next[slot]] = l.prev[slot]
	} else {
		l.tail = l.prev[slot]
	}
	l.next[slot], l.prev[slot] = -1, -1
}

func (l *lruList) touch(slot int) {
	if !l.present[slot] {
		return
	}
	l.remove(slot)
	l.push(slot)
}

// evict removes and returns the least recently used slot.
func (l *lruList) evict() (int, bool) {
	if l.tail < 0 {
		return 0, false
	}
	v := l.tail
	l.remove(v)
	return v, true
}

// Equal reports whether two keys compare equal byte-wise. Exposed for
// tests that model map behaviour.
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }
