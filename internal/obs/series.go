package obs

import "sync"

// EnginePoint is one sample of the shard engine's vital signs, taken
// once per synchronisation round (lookahead window).
type EnginePoint struct {
	Round     int64  `json:"round"`
	VirtualNs int64  `json:"virtual_ns"` // window floor
	Events    uint64 `json:"events"`
	Messages  uint64 `json:"messages"`
}

// Series is a fixed-capacity ring buffer of EnginePoints. Push is
// called by the engine coordinator between rounds; Points may be
// read concurrently by export handlers.
type Series struct {
	mu   sync.Mutex
	buf  []EnginePoint
	next int
	full bool
}

// NewSeries returns a ring holding the most recent capacity points.
func NewSeries(capacity int) *Series {
	if capacity < 1 {
		capacity = 1
	}
	return &Series{buf: make([]EnginePoint, capacity)}
}

// Push appends a point, evicting the oldest when full.
func (s *Series) Push(p EnginePoint) {
	s.mu.Lock()
	s.buf[s.next] = p
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Len reports how many points are held.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// Points returns the held points oldest-first as a copy.
func (s *Series) Points() []EnginePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		out := make([]EnginePoint, s.next)
		copy(out, s.buf[:s.next])
		return out
	}
	out := make([]EnginePoint, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}
