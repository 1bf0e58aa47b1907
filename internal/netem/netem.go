// Package netem models link-level traffic shaping in the spirit of
// Linux tc-netem, which the paper uses both to build the hybrid
// access testbed ("R uses tc netem to insert latency on the links and
// to limit their bandwidth", §4.2) and as the actuator of the delay
// compensation daemon ("applies a tc netem queuing discipline to
// delay the packets on the fastest path").
//
// A Qdisc combines a token-less serialising rate limiter, a constant
// propagation delay, Gaussian jitter, uniform random loss, and a
// finite FIFO. It is driven in virtual time by the discrete-event
// simulator: Admit answers, for a packet arriving now, when it is
// delivered at the far end — or that it is dropped.
package netem

import (
	"fmt"
	"math/rand"
)

// Config describes one link direction.
type Config struct {
	// RateBps limits throughput by serialisation (0 = unlimited).
	RateBps int64
	// DelayNs is the constant propagation delay.
	DelayNs int64
	// JitterNs is the standard deviation of Gaussian jitter added to
	// DelayNs (truncated so total delay stays non-negative).
	JitterNs int64
	// Loss is the uniform drop probability in [0,1).
	Loss float64
	// QueueLimit bounds packets waiting for serialisation; beyond it
	// the qdisc tail-drops. 0 means a default of 1000 (tc's default
	// netem limit).
	QueueLimit int

	// Corrupt is the probability in [0,1) that a packet is delivered
	// with flipped bits (tc-netem "corrupt"). The qdisc only marks the
	// packet; the link layer applies the damage to a private copy.
	Corrupt float64
	// Duplicate is the probability in [0,1) that a packet is delivered
	// twice (tc-netem "duplicate"). The duplicate is re-admitted and
	// serialised separately, like a second enqueue.
	Duplicate float64
	// Reorder is the probability in [0,1) that a packet skips the FIFO
	// clamp and may overtake its predecessors when jitter shortens its
	// delay (tc-netem "reorder" against the jitter distribution).
	Reorder float64
}

// DefaultQueueLimit matches tc-netem's default limit.
const DefaultQueueLimit = 1000

// Qdisc is the runtime state of one shaped link direction. Not safe
// for concurrent use; the single-threaded simulator drives it.
type Qdisc struct {
	cfg Config

	// busyUntil is when the serialiser frees up.
	busyUntil int64
	// inFlight holds the serialisation-finish times of queued
	// packets, pruned lazily; len(inFlight) is the queue depth.
	inFlight []int64
	// lastDelivery enforces FIFO delivery despite jitter: a packet
	// never arrives before its predecessor on the same direction.
	lastDelivery int64

	// ExtraDelayNs is the runtime-adjustable additional delay — the
	// knob the paper's TWD daemon turns to equalise path latencies.
	ExtraDelayNs int64

	// Statistics.
	Admitted  uint64
	Dropped   uint64
	LossDrops uint64
	// Impairment marks (tc-netem style counters).
	Corrupted  uint64
	Duplicated uint64
	Reordered  uint64
}

// New builds a qdisc for cfg.
func New(cfg Config) *Qdisc {
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	return &Qdisc{cfg: cfg}
}

// Config returns the static configuration.
func (q *Qdisc) Config() Config { return q.cfg }

// SetRate changes the serialisation rate at runtime.
func (q *Qdisc) SetRate(bps int64) { q.cfg.RateBps = bps }

// SetDelay changes the base propagation delay at runtime.
func (q *Qdisc) SetDelay(ns int64) { q.cfg.DelayNs = ns }

// SetLoss changes the uniform drop probability at runtime.
func (q *Qdisc) SetLoss(p float64) { q.cfg.Loss = p }

// SetImpairments changes the corruption/duplication/reordering
// probabilities at runtime — the knobs the chaos layer turns for a
// bounded impairment window. Probabilities of zero draw nothing from
// the RNG, so an impairment-free run consumes the same random stream
// whether or not the chaos layer is linked in.
func (q *Qdisc) SetImpairments(corrupt, duplicate, reorder float64) {
	q.cfg.Corrupt = corrupt
	q.cfg.Duplicate = duplicate
	q.cfg.Reorder = reorder
}

// DrawCorrupt decides whether the packet being admitted should be
// delivered corrupted. Draws from rng only when the knob is set.
func (q *Qdisc) DrawCorrupt(rng *rand.Rand) bool {
	if q.cfg.Corrupt <= 0 {
		return false
	}
	if rng.Float64() < q.cfg.Corrupt {
		q.Corrupted++
		return true
	}
	return false
}

// DrawDuplicate decides whether the packet being admitted should be
// delivered twice. Draws from rng only when the knob is set.
func (q *Qdisc) DrawDuplicate(rng *rand.Rand) bool {
	if q.cfg.Duplicate <= 0 {
		return false
	}
	if rng.Float64() < q.cfg.Duplicate {
		q.Duplicated++
		return true
	}
	return false
}

// QueueDepth reports packets currently queued or serialising.
func (q *Qdisc) QueueDepth(now int64) int {
	q.prune(now)
	return len(q.inFlight)
}

func (q *Qdisc) prune(now int64) {
	i := 0
	for i < len(q.inFlight) && q.inFlight[i] <= now {
		i++
	}
	if i > 0 {
		// Compact to the front of the backing array instead of
		// reslicing past it: a front-reslice discards capacity, so a
		// steady packet stream would make every later Admit's append
		// reallocate (one heap object per packet on the datapath).
		n := copy(q.inFlight, q.inFlight[i:])
		q.inFlight = q.inFlight[:n]
	}
}

// SerializationNs returns the wire time of size bytes at the
// configured rate.
func (q *Qdisc) SerializationNs(size int) int64 {
	if q.cfg.RateBps <= 0 {
		return 0
	}
	return int64(float64(size*8) / float64(q.cfg.RateBps) * 1e9)
}

// Admit offers a packet of size bytes to the qdisc at virtual time
// now. It returns the delivery time at the remote end and ok=false
// when the packet is dropped (queue overflow or random loss).
func (q *Qdisc) Admit(now int64, size int, rng *rand.Rand) (deliverAt int64, ok bool) {
	if q.cfg.Loss > 0 && rng.Float64() < q.cfg.Loss {
		q.LossDrops++
		q.Dropped++
		return 0, false
	}
	q.prune(now)
	if len(q.inFlight) >= q.cfg.QueueLimit {
		q.Dropped++
		return 0, false
	}

	start := now
	if q.busyUntil > start {
		start = q.busyUntil
	}
	txDone := start + q.SerializationNs(size)
	q.busyUntil = txDone
	q.inFlight = append(q.inFlight, txDone)

	delay := q.cfg.DelayNs + q.ExtraDelayNs
	if q.cfg.JitterNs > 0 {
		delay += int64(rng.NormFloat64() * float64(q.cfg.JitterNs))
	}
	if delay < 0 {
		// Delay never goes negative (a packet cannot arrive before it
		// finished serialising), whatever jitter or a negative
		// ExtraDelayNs ask for.
		delay = 0
	}
	deliverAt = txDone + delay
	// FIFO per direction: jitter shifts delay but never reorders
	// packets within one link (queueing in real links is FIFO) —
	// unless the reorder knob lets this packet overtake, in which
	// case it keeps its jittered time and may arrive before its
	// predecessors.
	if q.cfg.Reorder > 0 && rng.Float64() < q.cfg.Reorder {
		q.Reordered++
		if deliverAt > q.lastDelivery {
			q.lastDelivery = deliverAt
		}
	} else {
		if deliverAt < q.lastDelivery {
			deliverAt = q.lastDelivery
		}
		q.lastDelivery = deliverAt
	}
	q.Admitted++
	return deliverAt, true
}

func (q *Qdisc) String() string {
	return fmt.Sprintf("netem(rate=%dbps delay=%dns jitter=%dns loss=%.4f limit=%d extra=%dns)",
		q.cfg.RateBps, q.cfg.DelayNs, q.cfg.JitterNs, q.cfg.Loss, q.cfg.QueueLimit, q.ExtraDelayNs)
}
