// Package delaymon implements the paper's first use case (§4.1):
// passive monitoring of one-way network delays with SRv6, plus the
// two-way-delay (TWD) extension of §4.2.
//
// The data plane is pure eBPF (internal/nf/progs): a transit program
// at the head of the monitored path probabilistically encapsulates
// traffic with an SRH carrying DM and controller TLVs, and the
// End.DM program at the tail emits both timestamps through a perf
// event, then decapsulates. This package is the user-space half: the
// daemon that relays perf events to the controller as UDP datagrams
// (the paper's 100-SLOC bcc/Python program) and the controller that
// aggregates delay samples.
package delaymon

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/stats"
)

// Config parameterises one monitored path.
type Config struct {
	// Ratio samples one packet out of Ratio (the paper evaluates
	// 1:10000 and 1:100). Zero disables probing.
	Ratio uint32
	// Controller receives delay reports over UDP.
	Controller     netip.Addr
	ControllerPort uint16
	// SID is the End.DM segment at the tail of the monitored path.
	SID netip.Addr
}

// MarshalValue encodes the config as the dm_conf map value the BPF
// program reads (layout documented in internal/nf/progs).
func (c Config) MarshalValue() []byte {
	v := make([]byte, progs.DMConfSize)
	binary.LittleEndian.PutUint32(v[0:], c.Ratio)
	binary.BigEndian.PutUint16(v[4:], c.ControllerPort) // wire order
	ctrl := c.Controller.As16()
	copy(v[8:24], ctrl[:])
	sid := c.SID.As16()
	copy(v[24:40], sid[:])
	return v
}

// Record is one decoded End.DM perf sample.
type Record struct {
	TxNS, RxNS uint64
	Controller netip.Addr
	Port       uint16
}

// DecodeRecord parses the 40-byte perf sample.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) != progs.DMRecordSize {
		return Record{}, fmt.Errorf("delaymon: record size %d, want %d", len(b), progs.DMRecordSize)
	}
	return Record{
		TxNS:       binary.LittleEndian.Uint64(b[0:]),
		RxNS:       binary.LittleEndian.Uint64(b[8:]),
		Controller: netip.AddrFrom16([16]byte(b[16:32])),
		Port:       binary.LittleEndian.Uint16(b[32:]),
	}, nil
}

// ReportSize is the UDP payload the daemon sends to the controller:
// both timestamps, little-endian.
const ReportSize = 16

// Monitor owns the maps and loaded programs of one deployment.
type Monitor struct {
	Conf   *maps.Map
	Events *maps.Map

	encap *core.LWT
	endDM *core.EndBPF
}

// New loads the two programs and creates their maps. jit selects the
// execution engine for both.
func New(cfg Config, jit bool) (*Monitor, error) {
	conf, err := maps.New(maps.Spec{
		Name: progs.DMConfMap, Type: maps.Array,
		KeySize: 4, ValueSize: progs.DMConfSize, MaxEntries: 1,
	})
	if err != nil {
		return nil, err
	}
	if err := conf.Update(bpf.PutUint32(0), cfg.MarshalValue(), maps.UpdateAny); err != nil {
		return nil, err
	}
	events, err := maps.New(maps.Spec{
		Name: progs.DMEventsMap, Type: maps.PerfEventArray, MaxEntries: 1,
	})
	if err != nil {
		return nil, err
	}

	avail := map[string]*maps.Map{progs.DMConfMap: conf, progs.DMEventsMap: events}
	opts := bpf.LoadOptions{JIT: &jit}

	encapProg, err := bpf.LoadProgram(progs.DMEncapSpec(), core.LWTOutHook(), avail, opts)
	if err != nil {
		return nil, fmt.Errorf("delaymon: loading encap program: %w", err)
	}
	encap, err := core.AttachLWT(encapProg)
	if err != nil {
		return nil, err
	}
	dmProg, err := bpf.LoadProgram(progs.EndDMSpec(), core.Seg6LocalHook(), avail, opts)
	if err != nil {
		return nil, fmt.Errorf("delaymon: loading End.DM: %w", err)
	}
	endDM, err := core.AttachEndBPF(dmProg)
	if err != nil {
		return nil, err
	}

	return &Monitor{Conf: conf, Events: events, encap: encap, endDM: endDM}, nil
}

// AttachHead installs the transit program on node for traffic
// matching prefix, egressing via nexthops. It returns the node's refusal
// of the route, e.g. a nexthop on another node's interface.
func (m *Monitor) AttachHead(node *netsim.Node, prefix netip.Prefix, nexthops []netsim.Nexthop) error {
	return node.AddRoute(&netsim.Route{
		Prefix:   prefix,
		Kind:     netsim.RouteLWTBPF,
		BPF:      m.encap,
		Nexthops: nexthops,
	})
}

// AttachTail installs the End.DM SID on node, or returns the node's
// refusal of the route.
func (m *Monitor) AttachTail(node *netsim.Node, sid netip.Addr) error {
	return node.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(sid, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: m.endDM.Behaviour(),
	})
}

// Daemon is the user-space process on the End.DM router: it drains
// perf events and relays each to its controller in a single UDP
// datagram, as the paper's bcc daemon does.
type Daemon struct {
	node     *netsim.Node
	events   *maps.Map
	srcPort  uint16
	interval int64
	stopped  bool

	Relayed uint64
	Errors  uint64
}

// StartDaemon begins draining perf events on node every interval
// nanoseconds.
func (m *Monitor) StartDaemon(node *netsim.Node, interval int64) *Daemon {
	d := &Daemon{
		node:     node,
		events:   m.Events,
		srcPort:  52900,
		interval: interval,
	}
	node.After(interval, d.tick)
	return d
}

// Stop prevents further rescheduling (call before draining the
// simulation to completion).
func (d *Daemon) Stop() { d.stopped = true }

func (d *Daemon) tick() {
	if d.stopped {
		return
	}
	for _, s := range d.events.DrainSamples(0) {
		rec, err := DecodeRecord(s.Data)
		if err != nil {
			d.Errors++
			continue
		}
		payload := make([]byte, ReportSize)
		binary.LittleEndian.PutUint64(payload[0:], rec.TxNS)
		binary.LittleEndian.PutUint64(payload[8:], rec.RxNS)
		raw, err := packet.BuildPacket(d.node.PrimaryAddress(), rec.Controller,
			packet.WithUDP(d.srcPort, rec.Port),
			packet.WithPayload(payload))
		if err != nil {
			d.Errors++
			continue
		}
		d.node.Output(raw)
		d.Relayed++
	}
	d.node.After(d.interval, d.tick)
}

// Collector aggregates one-way delay reports on the controller.
type Collector struct {
	// Delays holds one-way delays in nanoseconds.
	Delays stats.Reservoir
	// Received counts reports.
	Received uint64
}

// Listen registers the collector on node's UDP port.
func (c *Collector) Listen(node *netsim.Node, port uint16) {
	c.Delays.Cap = 1 << 20
	node.HandleUDP(port, func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		payload := p.Raw[p.L4Off+packet.UDPHeaderLen:]
		if len(payload) != ReportSize {
			return
		}
		tx := binary.LittleEndian.Uint64(payload[0:])
		rx := binary.LittleEndian.Uint64(payload[8:])
		c.Received++
		c.Delays.Add(float64(rx - tx))
	})
}
