// Package trafgen provides the workload generators of the paper's
// evaluation: constant-rate UDP floods (the trafgen/pktgen tools used
// in §3.2 and §4.1) and payload-size sweeps at a target bitrate (the
// iperf3 runs of §4.2 / Figure 4), plus measuring sinks.
package trafgen

import (
	"fmt"
	"math"
	"net/netip"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/stats"
)

// UDPGen emits UDP packets at a constant packet rate from a node.
// The packet is built once and copied per transmission into a buffer of
// the node's free list (netsim.Node.PacketBuf), which a releasing Sink
// at the far end feeds; the flow label can vary per packet to exercise
// ECMP.
type UDPGen struct {
	Node     *netsim.Node
	Src, Dst netip.Addr
	SrcPort  uint16
	DstPort  uint16
	// PayloadLen is the UDP payload size in bytes (64 in §3.2).
	PayloadLen int
	// SRH optionally attaches a segment routing header.
	SRH *packet.SRH
	// HopLimit defaults to 64.
	HopLimit uint8
	// FlowLabel returns the label for packet i (nil = constant 0).
	FlowLabel func(i uint64) uint32

	// RatePPS is the offered load in packets per second. It is read by
	// Start; a change while the generator runs takes effect at the next.
	RatePPS float64

	template []byte
	sent     uint64
	stopAt   int64
	gap      int64 // nanoseconds between packets, fixed by Start
	running  bool
	// chain numbers the Starts. A tick belongs to the chain of the Start
	// that scheduled it and does nothing once a later one has begun, so
	// Stop followed by Start before the pending tick fires leaves one
	// chain, not two.
	chain uint64
	// tickFn is tick bound to the current chain, made once in Start:
	// binding it afresh for every Node.After would allocate a closure per
	// packet.
	tickFn func()
}

// Sent reports packets emitted so far.
func (g *UDPGen) Sent() uint64 { return g.sent }

// Start begins transmission now and stops at the given absolute
// virtual time. Start may run inside a scheduled event. It fails, and
// sends nothing, on a rate that is not a positive finite number and on a
// generator that is still running.
func (g *UDPGen) Start(until int64) error {
	gap, err := startGap(g.running, g.RatePPS)
	if err != nil {
		return err
	}
	if g.HopLimit == 0 {
		g.HopLimit = 64
	}
	opts := []packet.BuildOption{
		packet.WithUDP(g.SrcPort, g.DstPort),
		packet.WithPayload(make([]byte, g.PayloadLen)),
		packet.WithHopLimit(g.HopLimit),
	}
	if g.SRH != nil {
		opts = append(opts, packet.WithSRH(g.SRH))
	}
	tmpl, err := packet.BuildPacket(g.Src, g.Dst, opts...)
	if err != nil {
		return err
	}
	g.template = tmpl
	g.stopAt, g.gap = until, gap
	g.running = true
	g.chain++
	chain := g.chain
	g.tickFn = func() { g.tick(chain) }
	g.tick(chain)
	return nil
}

// startGap is the check both generators make before they start: the
// packet spacing of ratePPS, at least one nanosecond. A rate of zero —
// the zero value of the field — would otherwise come out of the integer
// conversion as a negative gap and, clamped, as a packet every
// nanosecond; and a second tick chain on a running generator would
// double its rate.
func startGap(running bool, ratePPS float64) (int64, error) {
	if running {
		return 0, fmt.Errorf("trafgen: Start on a running generator")
	}
	if !(ratePPS > 0) || math.IsInf(ratePPS, 0) {
		return 0, fmt.Errorf("trafgen: RatePPS %v is not a positive finite rate", ratePPS)
	}
	gap := int64(1e9 / ratePPS)
	if gap < 1 {
		gap = 1
	}
	return gap, nil
}

// Stop ceases transmission.
func (g *UDPGen) Stop() { g.running = false }

func (g *UDPGen) tick(chain uint64) {
	if chain != g.chain {
		return
	}
	if !g.running || g.Node.Now() >= g.stopAt {
		g.running = false
		return
	}
	raw := g.Node.PacketBuf(len(g.template))
	copy(raw, g.template)
	if g.FlowLabel != nil {
		fl := g.FlowLabel(g.sent) & 0xfffff
		raw[1] = raw[1]&0xf0 | uint8(fl>>16)
		raw[2] = uint8(fl >> 8)
		raw[3] = uint8(fl)
	}
	g.Node.OutputBuf(raw, 0)
	g.sent++
	g.Node.After(g.gap, g.tickFn)
}

// WireSize returns the on-the-wire packet size the generator emits.
func (g *UDPGen) WireSize() int { return len(g.template) }

// RawGen replays copies of an arbitrary prebuilt packet at a constant
// rate — used for workloads UDPGen cannot express, like the
// pre-encapsulated DM probes of Figure 3.
type RawGen struct {
	Node     *netsim.Node
	Template []byte
	RatePPS  float64 // read by Start, like UDPGen.RatePPS

	sent    uint64
	stopAt  int64
	gap     int64
	running bool
	chain   uint64 // see UDPGen.chain
	tickFn  func() // tick bound to the current chain (see UDPGen.tickFn)
}

// Sent reports packets emitted so far.
func (g *RawGen) Sent() uint64 { return g.sent }

// Start begins replaying until the given absolute virtual time, under
// UDPGen.Start's conditions.
func (g *RawGen) Start(until int64) error {
	gap, err := startGap(g.running, g.RatePPS)
	if err != nil {
		return err
	}
	g.stopAt, g.gap = until, gap
	g.running = true
	g.chain++
	chain := g.chain
	g.tickFn = func() { g.tick(chain) }
	g.tick(chain)
	return nil
}

// Stop ceases transmission.
func (g *RawGen) Stop() { g.running = false }

func (g *RawGen) tick(chain uint64) {
	if chain != g.chain {
		return
	}
	if !g.running || g.Node.Now() >= g.stopAt {
		g.running = false
		return
	}
	raw := g.Node.PacketBuf(len(g.Template))
	copy(raw, g.Template)
	g.Node.OutputBuf(raw, 0)
	g.sent++
	g.Node.After(g.gap, g.tickFn)
}

// Sink counts delivered UDP packets on a port and computes rates
// over the observation interval. It releases every packet it has counted
// (netsim.Node.Release), which is what returns a generator's buffers to
// the free list.
type Sink struct {
	Packets      uint64
	Bytes        uint64 // IPv6 packet bytes
	PayloadBytes uint64 // UDP payload bytes (goodput)

	first, last int64
	haveFirst   bool

	// InterArrival optionally collects packet gaps (delay analyses).
	InterArrival *stats.Reservoir
}

// NewSink registers a sink on node's UDP port.
func NewSink(node *netsim.Node, port uint16) *Sink {
	s := &Sink{}
	node.HandleUDP(port, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		now := meta.RxTimestamp
		if !s.haveFirst {
			s.first = now
			s.haveFirst = true
		} else if s.InterArrival != nil {
			s.InterArrival.Add(float64(now - s.last))
		}
		s.last = now
		s.Packets++
		s.Bytes += uint64(len(p.Raw))
		if n := len(p.Raw) - p.L4Off - packet.UDPHeaderLen; n > 0 {
			s.PayloadBytes += uint64(n)
		}
		n.Release(meta)
	})
	return s
}

// Window returns the observation interval in nanoseconds.
func (s *Sink) Window() int64 {
	if !s.haveFirst || s.last <= s.first {
		return 0
	}
	return s.last - s.first
}

// RatePPS is the delivered packet rate.
func (s *Sink) RatePPS() float64 { return stats.Rate(s.Packets, s.Window()) }

// GoodputBps is the delivered UDP payload rate in bit/s.
func (s *Sink) GoodputBps() float64 {
	return stats.BitsPerSecond(s.PayloadBytes, s.Window())
}

// Reset clears all counters for a fresh measurement window.
func (s *Sink) Reset() {
	*s = Sink{InterArrival: s.InterArrival}
}
