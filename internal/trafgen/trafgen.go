// Package trafgen provides the workload generators of the paper's
// evaluation: constant-rate UDP floods (the trafgen/pktgen tools used
// in §3.2 and §4.1) and payload-size sweeps at a target bitrate (the
// iperf3 runs of §4.2 / Figure 4), plus measuring sinks.
package trafgen

import (
	"net/netip"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/stats"
)

// UDPGen emits UDP packets at a constant packet rate from a node.
// The packet is built once and cloned per transmission; the flow
// label can vary per packet to exercise ECMP.
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

	// RatePPS is the offered load in packets per second.
	RatePPS float64

	template []byte
	sent     uint64
	stopAt   int64
	running  bool
	// tickFn is the method value g.tick, bound once in Start: taking it
	// afresh for every Node.After would allocate a closure per packet.
	tickFn func()
}

// Sent reports packets emitted so far.
func (g *UDPGen) Sent() uint64 { return g.sent }

// Start begins transmission now and stops at the given absolute
// virtual time. Start may run inside a scheduled event.
func (g *UDPGen) Start(until int64) error {
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
	g.stopAt = until
	g.running = true
	g.tickFn = g.tick
	g.tick()
	return nil
}

// Stop ceases transmission.
func (g *UDPGen) Stop() { g.running = false }

func (g *UDPGen) tick() {
	if !g.running || g.Node.Now() >= g.stopAt {
		g.running = false
		return
	}
	raw := packet.Clone(g.template)
	if g.FlowLabel != nil {
		fl := g.FlowLabel(g.sent) & 0xfffff
		raw[1] = raw[1]&0xf0 | uint8(fl>>16)
		raw[2] = uint8(fl >> 8)
		raw[3] = uint8(fl)
	}
	g.Node.Output(raw)
	g.sent++
	gap := int64(1e9 / g.RatePPS)
	if gap < 1 {
		gap = 1
	}
	g.Node.After(gap, g.tickFn)
}

// WireSize returns the on-the-wire packet size the generator emits.
func (g *UDPGen) WireSize() int { return len(g.template) }

// RawGen replays clones of an arbitrary prebuilt packet at a constant
// rate — used for workloads UDPGen cannot express, like the
// pre-encapsulated DM probes of Figure 3.
type RawGen struct {
	Node     *netsim.Node
	Template []byte
	RatePPS  float64

	sent    uint64
	stopAt  int64
	running bool
	tickFn  func() // g.tick, bound once in Start (see UDPGen.tickFn)
}

// Sent reports packets emitted so far.
func (g *RawGen) Sent() uint64 { return g.sent }

// Start begins replaying until the given absolute virtual time.
func (g *RawGen) Start(until int64) {
	g.stopAt = until
	g.running = true
	g.tickFn = g.tick
	g.tick()
}

// Stop ceases transmission.
func (g *RawGen) Stop() { g.running = false }

func (g *RawGen) tick() {
	if !g.running || g.Node.Now() >= g.stopAt {
		g.running = false
		return
	}
	g.Node.Output(packet.Clone(g.Template))
	g.sent++
	gap := int64(1e9 / g.RatePPS)
	if gap < 1 {
		gap = 1
	}
	g.Node.After(gap, g.tickFn)
}

// Sink counts delivered UDP packets on a port and computes rates
// over the observation interval.
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
