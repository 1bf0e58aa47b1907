// Package oamp implements the paper's third use case (§4.3): an
// enhanced, ECMP-aware traceroute built on the End.OAMP eBPF function.
//
// For each hop, the tracer first locates the router with a classic
// hop-limit-limited probe (ICMPv6 time exceeded). If the operator has
// published an End.OAMP SID for that router, the tracer then sends an
// SRv6 query whose segment list visits the SID and returns to the
// prober; End.OAMP fills a TLV with the router's ECMP nexthops for
// the traced destination. Routers without the function silently fall
// back to the legacy ICMP behaviour, exactly as the paper describes.
package oamp

import (
	"fmt"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
)

// Deploy loads End.OAMP and installs it at sid on node.
func Deploy(node *netsim.Node, sid netip.Addr, jit bool) error {
	prog, err := bpf.LoadProgram(progs.OAMPSpec(), core.Seg6LocalHook(), nil, bpf.LoadOptions{JIT: &jit})
	if err != nil {
		return fmt.Errorf("oamp: loading End.OAMP: %w", err)
	}
	end, err := core.AttachEndBPF(prog)
	if err != nil {
		return err
	}
	return node.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(sid, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: end.Behaviour(),
	})
}

// Hop is the result for one TTL.
type Hop struct {
	TTL  int
	Addr netip.Addr // responding router, or invalid on timeout
	// Nexthops is the ECMP set End.OAMP reported (nil when the hop
	// answered only with ICMP).
	Nexthops []netip.Addr
	ViaOAMP  bool
	Timeout  bool
	// Reached marks the final hop (destination responded).
	Reached bool
}

// Options tune a trace.
type Options struct {
	MaxTTL    int
	TimeoutNs int64
	FlowLabel uint32
	// SIDs maps a router address to its End.OAMP SID. Routers absent
	// from the map use the ICMP fallback.
	SIDs map[netip.Addr]netip.Addr
	// BasePort is the UDP destination port of the first probe
	// (incremented per TTL, traceroute-style).
	BasePort uint16
}

func (o *Options) setDefaults() {
	if o.MaxTTL == 0 {
		o.MaxTTL = 16
	}
	if o.TimeoutNs == 0 {
		o.TimeoutNs = 500 * netsim.Millisecond
	}
	if o.BasePort == 0 {
		o.BasePort = 33434
	}
}

// replyPort receives OAMP answers.
const replyPort = 33400

// Tracer runs one traceroute as an event-driven state machine inside
// the simulation.
type Tracer struct {
	node   *netsim.Node
	src    netip.Addr
	target netip.Addr
	opts   Options

	ttl     int
	seq     int // guards against stale timeouts
	hopAddr netip.Addr
	hops    []Hop
	done    func([]Hop)
	dead    bool
}

// Trace starts a traceroute from node towards target; done receives
// the hops when the trace completes. The node's ICMP handler and the
// reply UDP port are owned by the tracer for the duration.
func Trace(node *netsim.Node, target netip.Addr, opts Options, done func([]Hop)) *Tracer {
	opts.setDefaults()
	t := &Tracer{
		node:   node,
		src:    node.PrimaryAddress(),
		target: target,
		opts:   opts,
		done:   done,
	}
	node.HandleICMP(t.onICMP)
	node.HandleUDP(replyPort, t.onOAMPReply)
	t.ttl = 1
	t.probe()
	return t
}

// probe sends the hop-limited UDP probe for the current TTL.
func (t *Tracer) probe() {
	if t.dead {
		return
	}
	raw, err := packet.BuildPacket(t.src, t.target,
		packet.WithUDP(uint16(40000+t.ttl), t.opts.BasePort+uint16(t.ttl)),
		packet.WithHopLimit(uint8(t.ttl)),
		packet.WithFlowLabel(t.opts.FlowLabel),
		packet.WithPayload([]byte("oamp-traceroute")))
	if err != nil {
		t.finish()
		return
	}
	t.node.Output(raw)
	t.armTimeout()
}

func (t *Tracer) armTimeout() {
	t.seq++
	seq := t.seq
	t.node.After(t.opts.TimeoutNs, func() {
		if t.dead || seq != t.seq {
			return
		}
		t.hops = append(t.hops, Hop{TTL: t.ttl, Timeout: true})
		t.next()
	})
}

// onICMP classifies time-exceeded and port-unreachable answers.
func (t *Tracer) onICMP(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
	if t.dead {
		return
	}
	m, err := packet.DecodeICMPv6(p.Raw[p.L4Off:])
	if err != nil || len(m.Body) < packet.IPv6HeaderLen+packet.UDPHeaderLen {
		return
	}
	// The body (message offset 8, RFC 4443 §3.1/§3.3) quotes the
	// invoking packet; match it to our probe by the UDP destination
	// port.
	quoted := m.Body
	qp, err := packet.Parse(quoted)
	if err != nil || qp.L4Proto != packet.ProtoUDP {
		return
	}
	udp, err := packet.DecodeUDP(quoted[qp.L4Off:])
	if err != nil || udp.DstPort != t.opts.BasePort+uint16(t.ttl) {
		return
	}

	switch {
	case m.Type == packet.ICMPv6TimeExceeded:
		t.hopAddr = p.IPv6.Src
		if sid, ok := t.opts.SIDs[t.hopAddr]; ok {
			t.queryOAMP(sid)
			return
		}
		t.hops = append(t.hops, Hop{TTL: t.ttl, Addr: t.hopAddr})
		t.next()
	case m.Type == packet.ICMPv6DstUnreachable && m.Code == 4:
		// Port unreachable from the destination: trace complete.
		t.hops = append(t.hops, Hop{TTL: t.ttl, Addr: p.IPv6.Src, Reached: true})
		t.finish()
	}
}

// queryOAMP sends the End.OAMP query to the discovered hop.
func (t *Tracer) queryOAMP(sid netip.Addr) {
	srh := packet.NewSRH(
		[]netip.Addr{sid, t.src},
		packet.OAMPQueryTLV{Target: t.target},
		packet.NexthopsTLV{},
	)
	raw, err := packet.BuildPacket(t.src, sid,
		packet.WithSRH(srh),
		packet.WithUDP(replyPort, replyPort),
		packet.WithPayload([]byte{byte(t.ttl)}))
	if err != nil {
		t.hops = append(t.hops, Hop{TTL: t.ttl, Addr: t.hopAddr})
		t.next()
		return
	}
	t.node.Output(raw)
	t.armTimeout()
}

// onOAMPReply digests the returned query packet.
func (t *Tracer) onOAMPReply(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
	if t.dead || p.SRH == nil {
		return
	}
	payload := p.Raw[p.L4Off+packet.UDPHeaderLen:]
	if len(payload) < 1 || int(payload[0]) != t.ttl {
		return
	}
	// Local delivery checks the TLV area without decoding it.
	srh, _, err := packet.DecodeSRH(p.Raw[p.SRHOff:])
	if err != nil {
		return
	}
	var nhs []netip.Addr
	for _, tlv := range srh.TLVs {
		if v, ok := tlv.(packet.NexthopsTLV); ok {
			for i := 0; i < int(v.Count) && i < 4; i++ {
				nhs = append(nhs, v.Nexthops[i])
			}
		}
	}
	t.hops = append(t.hops, Hop{
		TTL:      t.ttl,
		Addr:     t.hopAddr,
		Nexthops: nhs,
		ViaOAMP:  true,
	})
	t.next()
}

func (t *Tracer) next() {
	t.ttl++
	if t.ttl > t.opts.MaxTTL {
		t.finish()
		return
	}
	t.probe()
}

func (t *Tracer) finish() {
	if t.dead {
		return
	}
	t.dead = true
	t.seq++
	if t.done != nil {
		t.done(t.hops)
	}
}

// Format renders hops like the traceroute CLI.
func Format(hops []Hop) string {
	out := ""
	for _, h := range hops {
		switch {
		case h.Timeout:
			out += fmt.Sprintf("%2d  *\n", h.TTL)
		case h.ViaOAMP:
			out += fmt.Sprintf("%2d  %s  [OAMP ecmp=%d: %v]\n", h.TTL, h.Addr, len(h.Nexthops), h.Nexthops)
		case h.Reached:
			out += fmt.Sprintf("%2d  %s  (destination)\n", h.TTL, h.Addr)
		default:
			out += fmt.Sprintf("%2d  %s  [icmp]\n", h.TTL, h.Addr)
		}
	}
	return out
}
