package hybrid

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
)

// newDMEvents creates the perf map End.DM writes its samples to.
func newDMEvents() (map[string]*maps.Map, error) {
	events, err := maps.New(maps.Spec{
		Name: progs.DMEventsMap, Type: maps.PerfEventArray, MaxEntries: 1,
	})
	if err != nil {
		return nil, err
	}
	return map[string]*maps.Map{progs.DMEventsMap: events}, nil
}

// Compensator is the paper's delay-equalisation daemon (§4.2): it
// sends TWD probes over both access links at regular intervals (via
// End.DM SIDs on the CPE), computes the smoothed per-link round-trip
// delays, and applies the difference as a netem extra delay on the
// fastest link. "This strategy does not fully prevent re-ordering,
// but still enables TCP flows to attain acceptable aggregated
// goodputs on links with different latencies."
type Compensator struct {
	tb       *Testbed
	interval int64
	port     uint16
	stopped  bool

	// rtt holds EWMA round-trip estimates per link (ns), with the
	// daemon's own compensation subtracted from every sample. The
	// mean (not the minimum) is the right control target: reordering
	// depends on the total delay difference packets actually
	// experience, queueing included.
	rtt [2]float64
	// Applied is the extra delay currently installed (ns), per link.
	Applied [2]int64

	ProbesSent     uint64
	ProbesReceived uint64
}

// twdAlpha is the EWMA weight of a new sample.
const twdAlpha = 0.25

// probePayloadSize: 1 byte link index + 8 bytes of the compensation
// delay in force when the probe was sent (so the daemon can subtract
// its own contribution from the measurement).
const probePayloadSize = 9

// twdPort is the UDP port the compensator listens on.
const twdPort = 48879

// DeployEndDM installs the End.DM programs on the CPE (one SID per
// link) so TWD probes bounce back to the aggregation box. The same
// program serves both SIDs.
func (tb *Testbed) DeployEndDM(jit bool) error {
	// End.DM needs its maps even when only the TWD path is used.
	events, err := newDMEvents()
	if err != nil {
		return err
	}
	prog, err := bpf.LoadProgram(progs.EndDMSpec(), core.Seg6LocalHook(), events, bpf.LoadOptions{JIT: &jit})
	if err != nil {
		return fmt.Errorf("hybrid: loading End.DM: %w", err)
	}
	for _, sid := range []netip.Addr{SIDDMLink0, SIDDMLink1} {
		end, err := core.AttachEndBPF(prog)
		if err != nil {
			return err
		}
		if err := tb.CPE.AddRoute(&netsim.Route{
			Prefix:    netip.PrefixFrom(sid, 128),
			Kind:      netsim.RouteSeg6Local,
			Behaviour: end.Behaviour(),
		}); err != nil {
			return err
		}
	}
	return nil
}

// StartCompensator launches the TWD daemon on the aggregation box.
func (tb *Testbed) StartCompensator(interval int64) *Compensator {
	c := &Compensator{tb: tb, interval: interval, port: twdPort}
	tb.Agg.HandleUDP(twdPort, c.onProbeReturn)
	tb.Agg.After(interval, c.tick)
	return c
}

// Stop halts probing (the currently applied compensation remains).
func (c *Compensator) Stop() { c.stopped = true }

// RTT returns the current base-RTT estimate for a link: the EWMA of
// samples with the daemon's own compensation subtracted.
func (c *Compensator) RTT(link int) float64 { return c.rtt[link] }

func (c *Compensator) tick() {
	if c.stopped {
		return
	}
	c.sendProbe(0, SIDDMLink0)
	c.sendProbe(1, SIDDMLink1)
	c.tb.Agg.After(c.interval, c.tick)
}

// sendProbe emits one TWD probe over the given link: an SRv6 UDP
// packet whose SRH visits the CPE's End.DM SID and returns to the
// querier, carrying the TX timestamp in a DM TLV. The layout matches
// what the End.DM program parses (2 segments + DM TLV + controller
// TLV).
func (c *Compensator) sendProbe(link int, sid netip.Addr) {
	now := c.tb.Agg.Now()
	returnAddr := AggAddrLink0
	if link == 1 {
		returnAddr = AggAddrLink1
	}
	srh := packet.NewSRH(
		[]netip.Addr{sid, returnAddr},
		packet.DMTLV{TxTimestampNS: uint64(now)},
		packet.ControllerTLV{Addr: AggAddr, Port: c.port},
	)
	payload := make([]byte, probePayloadSize)
	payload[0] = byte(link)
	binary.LittleEndian.PutUint64(payload[1:], uint64(c.Applied[link]))
	raw, err := packet.BuildPacket(returnAddr, sid,
		packet.WithSRH(srh),
		packet.WithUDP(c.port, c.port),
		packet.WithPayload(payload))
	if err != nil {
		return
	}
	c.ProbesSent++
	c.tb.Agg.Output(raw)
}

// onProbeReturn computes the RTT from the embedded TX timestamp and
// re-balances the compensation delays.
func (c *Compensator) onProbeReturn(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
	payload := p.Raw[p.L4Off+packet.UDPHeaderLen:]
	if len(payload) < probePayloadSize || p.SRH == nil {
		return
	}
	link := int(payload[0])
	if link != 0 && link != 1 {
		return
	}
	// Local delivery has checked the TLV area (a DM TLV holds its eight
	// bytes) without decoding it: the probe's one DM TLV is read in place.
	srh := p.Raw[p.SRHOff:]
	off, found := packet.FindTLV(srh, packet.TLVTypeDM)
	if !found {
		return
	}
	tx := binary.BigEndian.Uint64(srh[off+2:])
	c.ProbesReceived++
	rtt := float64(uint64(n.Now()) - tx)
	// The probe traversed our own compensation qdisc on the way out;
	// subtract the delay that was in force at send time so the
	// estimate converges on the link's base delay instead of chasing
	// its own tail.
	rtt -= float64(binary.LittleEndian.Uint64(payload[1:]))
	if rtt < 0 {
		rtt = 0
	}
	if c.rtt[link] == 0 {
		c.rtt[link] = rtt
	} else {
		c.rtt[link] = (1-twdAlpha)*c.rtt[link] + twdAlpha*rtt
	}
	c.apply()
}

// apply sets the extra delay on the faster link to half the base-RTT
// difference (one direction's worth), clearing it on the slower one.
func (c *Compensator) apply() {
	if c.rtt[0] == 0 || c.rtt[1] == 0 {
		return
	}
	diff := c.RTT(0) - c.RTT(1)
	fast, slow := 1, 0
	if diff < 0 {
		fast, slow = 0, 1
		diff = -diff
	}
	oneWay := int64(diff / 2)
	// Downstream is the data-bearing direction in the experiments:
	// compensate on the aggregation box's egress qdiscs.
	c.tb.AggLink[fast].Qdisc().ExtraDelayNs = oneWay
	c.tb.AggLink[slow].Qdisc().ExtraDelayNs = 0
	c.Applied[fast] = oneWay
	c.Applied[slow] = 0
}
