package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
)

// runProgram executes a bundled program on a synthetic probe inside a
// two-node rig and prints to w what happened to the packet.
func runProgram(w io.Writer, name string, e entry) error {
	src := netip.MustParseAddr("2001:db8:1::1")
	dst := netip.MustParseAddr("2001:db8:2::1")
	sid := netip.MustParseAddr("fc00:10::1")

	sim := netsim.New(1)
	rtr := sim.AddNode("rtr", netsim.ServerCostModel())
	peer := sim.AddNode("peer", netsim.HostCostModel())
	rtr.AddAddress(netip.MustParseAddr("2001:db8:10::1"))
	peer.AddAddress(dst)
	peer.AddAddress(src)
	rIf, pIf := netsim.ConnectSymmetric(rtr, peer, netem.Config{RateBps: 1e10})
	if err := rtr.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rIf}}}); err != nil {
		return err
	}
	if err := peer.AddRoute(&netsim.Route{Prefix: netip.MustParsePrefix("::/0"), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: pIf}}}); err != nil {
		return err
	}

	avail := demoMaps(name)
	prog, err := bpf.LoadProgram(e.spec, e.hook, avail, bpf.LoadOptions{})
	if err != nil {
		return err
	}

	raw, err := demoPacket(name, src, dst, sid)
	if err != nil {
		return err
	}
	before, err := packet.Parse(raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "in:  %s\n", before.Summary())

	meta := &netsim.PacketMeta{RxTimestamp: sim.Now()}
	switch e.hook.Name {
	case "lwt_seg6local":
		end, err := core.AttachEndBPF(prog)
		if err != nil {
			return err
		}
		res, cost, err := end.RunSeg6Local(rtr, raw, meta)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "verdict: %v (modelled cost %d ns)\n", res.Verdict, cost)
		if res.Pkt != nil {
			if after, perr := packet.Parse(res.Pkt); perr == nil {
				fmt.Fprintf(w, "out: %s\n", after.Summary())
			}
		}
	case "lwt_out":
		lwt, err := core.AttachLWT(prog)
		if err != nil {
			return err
		}
		out, verdict, cost, err := lwt.RunLWTOut(rtr, raw, meta)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "verdict: %d (modelled cost %d ns)\n", verdict, cost)
		if out != nil {
			if after, perr := packet.Parse(out); perr == nil {
				fmt.Fprintf(w, "out: %s\n", after.Summary())
			}
		}
	default:
		return fmt.Errorf("hook %s not runnable", e.hook.Name)
	}
	drainPerf(w, avail)
	return nil
}

// demoPacket builds an input matching each program's expectations.
func demoPacket(name string, src, dst, sid netip.Addr) ([]byte, error) {
	switch name {
	case "end_dm":
		inner, err := packet.BuildPacket(src, dst, packet.WithUDP(1, 2), packet.WithPayload([]byte("in")))
		if err != nil {
			return nil, err
		}
		srh := packet.NewSRH([]netip.Addr{sid, dst},
			packet.DMTLV{TxTimestampNS: 12345},
			packet.ControllerTLV{Addr: dst, Port: 7788})
		return packet.BuildPacket(src, sid, packet.WithSRH(srh), packet.WithInnerPacket(inner))
	case "end_oamp":
		srh := packet.NewSRH([]netip.Addr{sid, src},
			packet.OAMPQueryTLV{Target: dst},
			packet.NexthopsTLV{})
		return packet.BuildPacket(src, sid, packet.WithSRH(srh), packet.WithUDP(1, 2), packet.WithPayload([]byte{1}))
	case "dm_encap", "wrr":
		return packet.BuildPacket(src, dst, packet.WithUDP(1, 2), packet.WithPayload([]byte("plain")))
	default:
		srh := packet.NewSRH([]netip.Addr{sid, dst})
		srh.Tag = 41
		return packet.BuildPacket(src, sid, packet.WithSRH(srh), packet.WithUDP(1, 2), packet.WithPayload([]byte("demo")))
	}
}

// demoMaps provisions configured maps for the programs that need them.
func demoMaps(name string) map[string]*maps.Map {
	out := make(map[string]*maps.Map)
	dst := netip.MustParseAddr("2001:db8:2::1")
	sid := netip.MustParseAddr("fc00:10::1")
	switch name {
	case "dm_encap", "end_dm":
		conf := maps.MustNew(maps.Spec{Name: progs.DMConfMap, Type: maps.Array, KeySize: 4, ValueSize: progs.DMConfSize, MaxEntries: 1})
		v := make([]byte, progs.DMConfSize)
		binary.LittleEndian.PutUint32(v[0:], 1) // sample everything
		binary.BigEndian.PutUint16(v[4:], 7788)
		a := dst.As16()
		copy(v[8:24], a[:])
		b := sid.As16()
		copy(v[24:40], b[:])
		conf.Update(bpf.PutUint32(0), v, maps.UpdateAny)
		out[progs.DMConfMap] = conf
		out[progs.DMEventsMap] = maps.MustNew(maps.Spec{Name: progs.DMEventsMap, Type: maps.PerfEventArray, MaxEntries: 1})
	case "wrr":
		conf := maps.MustNew(maps.Spec{Name: progs.WRRConfMap, Type: maps.Array, KeySize: 4, ValueSize: progs.WRRConfSize, MaxEntries: 1})
		v := make([]byte, progs.WRRConfSize)
		binary.LittleEndian.PutUint32(v[0:], 5)
		binary.LittleEndian.PutUint32(v[4:], 3)
		a := sid.As16()
		copy(v[8:24], a[:])
		copy(v[24:40], a[:])
		conf.Update(bpf.PutUint32(0), v, maps.UpdateAny)
		out[progs.WRRConfMap] = conf
		out[progs.WRRStateMap] = maps.MustNew(maps.Spec{Name: progs.WRRStateMap, Type: maps.Array, KeySize: 4, ValueSize: progs.WRRStateSize, MaxEntries: 1})
	}
	return out
}

// drainPerf prints any perf samples the run produced.
func drainPerf(w io.Writer, avail map[string]*maps.Map) {
	m, ok := avail[progs.DMEventsMap]
	if !ok {
		return
	}
	for _, s := range m.DrainSamples(0) {
		fmt.Fprintf(w, "perf event (%d bytes): % x\n", len(s.Data), s.Data)
	}
}
