package netsim

import "srv6bpf/internal/seg6"

// CostModel charges virtual CPU time per packet. The simulator's
// throughput results come from these numbers, so they are the
// calibration surface of the whole reproduction; see EXPERIMENTS.md
// for the fit.
//
// All figures of the paper are *normalized* to raw IPv6 forwarding,
// so only the ratios matter for the reproduced shapes. Absolute
// values are anchored on the paper's single measured absolute: 610
// kpps of raw IPv6 forwarding on the Xeon X3440 router for 64-byte
// UDP payloads inside a 2-segment SRH (§3.2).
type CostModel struct {
	// ForwardNs is the fixed per-packet cost of the IPv6 receive +
	// FIB lookup + transmit path.
	ForwardNs int64
	// PerByteNs adds size-dependent cost (copies, checksums).
	PerByteNs float64
	// LocalDeliverNs is the local socket delivery cost.
	LocalDeliverNs int64
	// Behaviour is the extra cost of each static seg6local behaviour,
	// on top of ForwardNs, indexed by action (zero where unset).
	Behaviour [seg6.NumActions]int64
	// EncapNs is the extra cost of the seg6 transit behaviours
	// (T.Encaps / T.Insert) performed by a route.
	EncapNs int64
	// ICMPGenNs is the cost of generating an ICMPv6 error.
	ICMPGenNs int64

	// BPF execution: a fixed program-call overhead plus per-retired-
	// instruction cost depending on engine, plus a per-helper-call
	// surcharge (helpers run native kernel code).
	BPFSetupNs    int64
	InsnNsJIT     float64
	InsnNsInterp  float64
	HelperNs      int64
	RxRingPackets int // NIC receive ring size (packets)
}

// BPFCost converts retired instruction and helper-call counts into
// nanoseconds.
func (c *CostModel) BPFCost(insns, helperCalls uint64, jit bool) int64 {
	perInsn := c.InsnNsInterp
	if jit {
		perInsn = c.InsnNsJIT
	}
	return c.BPFSetupNs + int64(float64(insns)*perInsn) + int64(helperCalls)*c.HelperNs
}

// PacketCost is the base cost of handling one packet of the given
// size.
func (c *CostModel) PacketCost(size int) int64 {
	return c.ForwardNs + int64(float64(size)*c.PerByteNs)
}

// ServerCostModel models the paper's lab routers (Intel Xeon X3440,
// one core taking all NIC interrupts, Linux 4.18 forwarding path).
//
// Calibration: 64-byte UDP payload + 2-segment SRH is a 152-byte
// packet; 1548 + 0.6*152 ≈ 1639 ns/packet ≈ 610 kpps — the paper's
// measured raw forwarding baseline. Static behaviour costs and the
// BPF constants put each Figure 2 bar at the relationship the paper
// reports (End.BPF −3% vs static End; Tag++ below End.BPF; End.T.BPF
// below static End.T; AddTLV −5% vs End.BPF; JIT off ⇒ ÷1.8 on
// whole-router throughput).
//
// Note on InsnNsInterp: the paper's programs are clang-compiled C
// whose instruction counts are several times larger than the
// hand-written equivalents bundled here (e.g. Add TLV: 60 SLOC of C
// versus ~32 retired instructions in our dialect). The per-
// instruction interpreter cost therefore folds in that footprint
// ratio so that the *whole-router* JIT-off factor lands at the
// paper's ×1.8.
func ServerCostModel() CostModel {
	return CostModel{
		ForwardNs:      1548,
		PerByteNs:      0.6,
		LocalDeliverNs: 500,
		Behaviour: [seg6.NumActions]int64{
			seg6.ActionEnd:        50,
			seg6.ActionEndX:       60,
			seg6.ActionEndT:       85,
			seg6.ActionEndDX2:     520,
			seg6.ActionEndDX6:     600,
			seg6.ActionEndDX4:     600,
			seg6.ActionEndDT6:     700,
			seg6.ActionEndDT4:     700,
			seg6.ActionEndDT46:    730,
			seg6.ActionEndB6:      300,
			seg6.ActionEndB6Encap: 800,
			// Proxies: End.AS pays a full decap + later re-encap;
			// End.AM only rewrites the destination address.
			seg6.ActionEndAS: 950,
			seg6.ActionEndAM: 120,
		},
		EncapNs:       260,
		ICMPGenNs:     2000,
		BPFSetupNs:    45,
		InsnNsJIT:     0.5,
		InsnNsInterp:  46,
		HelperNs:      40,
		RxRingPackets: 512,
	}
}

// CPECostModel models the Turris Omnia home router of §4.2 (dual-core
// 1.6 GHz ARMv7; one flow keeps one core busy). It is roughly four
// times slower per packet than the lab servers; its eBPF interpreter
// is proportionally slower still, and — as in the paper — the ARM32
// JIT is unusable, so WRR runs interpreted.
func CPECostModel() CostModel {
	return CostModel{
		ForwardNs:      6000,
		PerByteNs:      1.2,
		LocalDeliverNs: 2000,
		Behaviour: [seg6.NumActions]int64{
			seg6.ActionEnd:    200,
			seg6.ActionEndX:   240,
			seg6.ActionEndT:   340,
			seg6.ActionEndDX2: 450,
			seg6.ActionEndDX6: 500,
			seg6.ActionEndDX4: 500,
			// Decap costs ~9% of the CPE's per-packet budget: the
			// "Kernel decap." curve of Figure 4 sits ~10% under plain
			// forwarding at CPU-bound payload sizes.
			seg6.ActionEndDT6:     550,
			seg6.ActionEndDT4:     550,
			seg6.ActionEndDT46:    580,
			seg6.ActionEndB6:      1200,
			seg6.ActionEndB6Encap: 2400,
			seg6.ActionEndAS:      2800,
			seg6.ActionEndAM:      400,
		},
		// Kernel decapsulation of SRv6 traffic costs ~10% of the
		// baseline per-packet time (Figure 4, "Kernel decap.").
		EncapNs:       650,
		ICMPGenNs:     8000,
		BPFSetupNs:    180,
		InsnNsJIT:     2,
		InsnNsInterp:  75,
		HelperNs:      60,
		RxRingPackets: 256,
	}
}

// HostCostModel is for traffic sources and sinks whose CPU must never
// be the bottleneck (trafgen/pktgen saturate from user space in the
// paper's lab, offering 3 Mpps).
func HostCostModel() CostModel {
	return CostModel{
		ForwardNs:      100,
		PerByteNs:      0.01,
		LocalDeliverNs: 50,
		EncapNs:        50,
		ICMPGenNs:      100,
		BPFSetupNs:     10,
		InsnNsJIT:      0.5,
		InsnNsInterp:   5,
		HelperNs:       5,
		RxRingPackets:  1 << 16,
	}
}
