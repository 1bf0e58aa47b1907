package seg6

import (
	"fmt"
	"net/netip"

	"srv6bpf/internal/packet"
)

// Spec describes one registered seg6local behaviour: how to validate
// its parameters when a route is installed and how to apply it to a
// packet. The forwarding engine dispatches through the registry
// instead of switching on the action, so new behaviours plug in
// without touching the node code.
type Spec struct {
	Action Action
	// Name is the iproute2 spelling ("End.DT46"); Action.String and
	// the behavior-matrix docs use it.
	Name string
	// Flavors is the mask of PSP/USP/USD modifiers this behaviour
	// accepts; Validate rejects a Behaviour carrying others.
	Flavors Flavor
	// Validate checks install-time parameters (nil when the action
	// has none).
	Validate func(b *Behaviour) error
	// Apply executes the behaviour on raw packet bytes. Nil only for
	// program-backed actions (Prog below). It and Inbound take b as
	// Validate passed it and do not check its parameters again; the
	// package-level Apply is the entry that validates first.
	Apply func(b *Behaviour, raw []byte) (Result, error)
	// Inbound is the return-path half of the SR proxies (End.AS /
	// End.AM): applied to packets arriving from the proxied VNF's
	// interface rather than to packets addressed to the SID.
	Inbound func(b *Behaviour, raw []byte) (Result, error)
	// Encapsulates marks behaviours that wrap the packet in a new
	// outer header; the forwarding engine charges the tunnel-ingress
	// hop-limit decrement before them.
	Encapsulates bool
	// Prog marks actions backed by a loaded program (End.BPF); the
	// hook layer in internal/core runs them, not this package.
	Prog bool
}

var registry [NumActions]*Spec

// Register installs a behaviour spec in the dispatch table. It
// panics on a duplicate or out-of-range action: specs are wired at
// init time and a bad registration is a programming error.
func Register(sp Spec) {
	if int(sp.Action) < 0 || int(sp.Action) >= NumActions {
		panic(fmt.Sprintf("seg6: Register: action %d out of range", int(sp.Action)))
	}
	if registry[sp.Action] != nil {
		panic(fmt.Sprintf("seg6: Register: duplicate action %d (%s)", int(sp.Action), sp.Name))
	}
	if sp.Name == "" {
		panic("seg6: Register: spec needs a name")
	}
	if sp.Apply == nil && !sp.Prog {
		panic(fmt.Sprintf("seg6: Register: %s has no apply function", sp.Name))
	}
	s := sp
	registry[sp.Action] = &s
}

// Lookup returns the spec for an action, nil if none is registered.
func Lookup(a Action) *Spec {
	if int(a) < 0 || int(a) >= NumActions {
		return nil
	}
	return registry[a]
}

// Specs returns the registered behaviours in action order (the
// behavior-matrix docs and conformance tests iterate it).
func Specs() []*Spec {
	var out []*Spec
	for _, sp := range registry {
		if sp != nil {
			out = append(out, sp)
		}
	}
	return out
}

// Validate checks a behaviour's parameters against its spec — the
// install-time half of the dispatch contract, and the only place they
// are checked. Route installation (netsim's Table.Add, the kernel's
// build_state) calls it so a misconfigured behaviour is rejected before
// it can eat packets; the registered Apply and Inbound funcs rely on it.
func Validate(b *Behaviour) error {
	sp := Lookup(b.Action)
	if sp == nil {
		return fmt.Errorf("%w: unknown action %d", ErrBadBehaviour, int(b.Action))
	}
	if b.Flavors&^sp.Flavors != 0 {
		return fmt.Errorf("%w: %s does not support flavor %s", ErrBadBehaviour, sp.Name, b.Flavors&^sp.Flavors)
	}
	if sp.Validate != nil {
		return sp.Validate(b)
	}
	return nil
}

// Apply executes a non-BPF behaviour on raw: it validates b, then
// dispatches through the registry. It is for callers that hold a
// behaviour nothing has validated (tests, benchmarks); a forwarding
// engine validates once at install and calls the spec's Apply per
// packet. End.BPF is the hook layer's (internal/core); passing it here
// returns an error.
func Apply(b *Behaviour, raw []byte) (Result, error) {
	if err := Validate(b); err != nil {
		return drop(), err
	}
	sp := registry[b.Action]
	if sp.Prog {
		return drop(), fmt.Errorf("%w: %s is handled by the hook layer", ErrBadBehaviour, sp.Name)
	}
	return sp.Apply(b, raw)
}

// endAdvance is the shared endpoint step of End/End.X/End.T with the
// RFC 8986 flavor modifiers applied uniformly:
//
//   - SegmentsLeft > 0: advance; if PSP and the advance lands on the
//     last segment, pop the SRH.
//   - SegmentsLeft == 0: USD decapsulates, USP pops the exhausted
//     SRH; without either flavor the packet is dropped (the kernel
//     sends ICMP parameter problem; our caller counts the drop).
func endAdvance(b *Behaviour, raw []byte, v Verdict, nh netip.Addr, table int) (Result, error) {
	info, err := packet.ParseInfo(raw)
	if err != nil {
		return drop(), err
	}
	if !info.HasSRH() {
		return drop(), ErrNoSRH
	}
	if info.SegmentsLeft == 0 {
		switch {
		case b.Flavors&FlavorUSD != 0:
			inner, err := DecapInner(raw)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: v, Pkt: inner, Nexthop: nh, Table: table}, nil
		case b.Flavors&FlavorUSP != 0:
			out, err := stripSRH(raw, info.SRHOff, info.SRHLen)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: v, Pkt: out, Nexthop: nh, Table: table}, nil
		}
		return drop(), ErrZeroSegsLeft
	}
	if err := AdvanceAt(raw, info.SRHOff); err != nil {
		return drop(), err
	}
	if b.Flavors&FlavorPSP != 0 && raw[info.SRHOff+packet.SRHOffSegmentsLeft] == 0 {
		out, err := stripSRH(raw, info.SRHOff, info.SRHLen)
		if err != nil {
			return drop(), err
		}
		return Result{Verdict: v, Pkt: out, Nexthop: nh, Table: table}, nil
	}
	return Result{Verdict: v, Pkt: raw, Nexthop: nh, Table: table}, nil
}

func isV6(p uint8) bool  { return p == packet.ProtoIPv6 }
func isV4(p uint8) bool  { return p == packet.ProtoIPv4 }
func isV46(p uint8) bool { return p == packet.ProtoIPv6 || p == packet.ProtoIPv4 }
func isL2(p uint8) bool  { return p == packet.ProtoEthernet }

// needNexthop/needSRHSrc/needOIF are shared install-time validators.
func needNexthop(name string) func(*Behaviour) error {
	return func(b *Behaviour) error {
		if !b.Nexthop.IsValid() {
			return fmt.Errorf("%w: %s needs a nexthop", ErrBadBehaviour, name)
		}
		return nil
	}
}

func needSRHSrc(name string) func(*Behaviour) error {
	return func(b *Behaviour) error {
		if b.SRH == nil || !b.Src.IsValid() {
			return fmt.Errorf("%w: %s needs an SRH and source", ErrBadBehaviour, name)
		}
		return nil
	}
}

func needOIF(name string) func(*Behaviour) error {
	return func(b *Behaviour) error {
		if b.OIF == nil {
			return fmt.Errorf("%w: %s needs an outgoing interface", ErrBadBehaviour, name)
		}
		return nil
	}
}

func init() {
	endFlavors := FlavorPSP | FlavorUSP | FlavorUSD

	Register(Spec{
		Action: ActionEnd, Name: "End", Flavors: endFlavors,
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			return endAdvance(b, raw, VerdictForward, netip.Addr{}, 0)
		},
	})

	Register(Spec{
		Action: ActionEndX, Name: "End.X", Flavors: endFlavors,
		Validate: needNexthop("End.X"),
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			return endAdvance(b, raw, VerdictForwardNexthop, b.Nexthop, 0)
		},
	})

	Register(Spec{
		Action: ActionEndT, Name: "End.T", Flavors: endFlavors,
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			return endAdvance(b, raw, VerdictForwardTable, netip.Addr{}, b.Table)
		},
	})

	Register(Spec{
		Action: ActionEndDX2, Name: "End.DX2", Flavors: FlavorUSD,
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			frame, err := decapInner(raw, isL2, b.Flavors)
			if err != nil {
				return drop(), err
			}
			if b.OIF != nil {
				return Result{Verdict: VerdictForwardOIF, Pkt: frame}, nil
			}
			return Result{Verdict: VerdictDeliverL2, Pkt: frame}, nil
		},
	})

	Register(Spec{
		Action: ActionEndDX6, Name: "End.DX6", Flavors: FlavorUSD,
		Validate: needNexthop("End.DX6"),
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			inner, err := decapInner(raw, isV6, b.Flavors)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForwardNexthop, Pkt: inner, Nexthop: b.Nexthop}, nil
		},
	})

	Register(Spec{
		Action: ActionEndDX4, Name: "End.DX4", Flavors: FlavorUSD,
		Validate: needNexthop("End.DX4"),
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			inner, err := decapInner(raw, isV4, b.Flavors)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForwardNexthop, Pkt: inner, Nexthop: b.Nexthop}, nil
		},
	})

	Register(Spec{
		Action: ActionEndDT6, Name: "End.DT6", Flavors: FlavorUSD,
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			inner, err := decapInner(raw, isV6, b.Flavors)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForwardTable, Pkt: inner, Table: b.Table}, nil
		},
	})

	Register(Spec{
		Action: ActionEndDT4, Name: "End.DT4", Flavors: FlavorUSD,
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			inner, err := decapInner(raw, isV4, b.Flavors)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForwardTable, Pkt: inner, Table: b.Table}, nil
		},
	})

	Register(Spec{
		Action: ActionEndDT46, Name: "End.DT46", Flavors: FlavorUSD,
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			inner, err := decapInner(raw, isV46, b.Flavors)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForwardTable, Pkt: inner, Table: b.Table}, nil
		},
	})

	Register(Spec{
		Action: ActionEndB6, Name: "End.B6",
		Validate: func(b *Behaviour) error {
			if b.SRH == nil {
				return fmt.Errorf("%w: End.B6 needs an SRH", ErrBadBehaviour)
			}
			return nil
		},
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			out, err := InsertSRH(raw, b.SRH)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForward, Pkt: out}, nil
		},
	})

	Register(Spec{
		Action: ActionEndB6Encap, Name: "End.B6.Encaps",
		Encapsulates: true,
		Validate:     needSRHSrc("End.B6.Encaps"),
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			// Advance the original SRH in place first (we are an
			// endpoint for the current active segment, and the hop owns
			// raw), then push the policy. Apply is not told which
			// allocation raw arrived in, so this static form always
			// encapsulates into a fresh buffer; the End.BPF helper form,
			// which is told, pushes into headroom (EncapWireIn).
			if err := Advance(raw); err != nil {
				return drop(), err
			}
			encap := Encap
			if b.Reduced {
				encap = EncapRed
			}
			out, err := encap(raw, b.Src, b.SRH)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForward, Pkt: out}, nil
		},
	})

	Register(Spec{
		Action: ActionEndAS, Name: "End.AS",
		Validate: func(b *Behaviour) error {
			if err := needSRHSrc("End.AS")(b); err != nil {
				return err
			}
			return needOIF("End.AS")(b)
		},
		// Outbound: full decap, hand the naked inner packet to the
		// SR-unaware VNF. No SegmentsLeft gate — removing the SR
		// encapsulation mid-path is the proxy's whole job; the
		// configured SRH restores it on return.
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			p, err := packet.Parse(raw)
			if err != nil {
				return drop(), err
			}
			if !isV46(p.L4Proto) {
				return drop(), ErrNotEncapsulated
			}
			return Result{Verdict: VerdictForwardOIF, Pkt: packet.Clone(raw[p.L4Off:])}, nil
		},
		// Inbound (from the VNF's interface): re-encapsulate with the
		// statically configured SRH and continue on the SR path.
		Inbound: func(b *Behaviour, raw []byte) (Result, error) {
			out, err := Encap(raw, b.Src, b.SRH)
			if err != nil {
				return drop(), err
			}
			return Result{Verdict: VerdictForward, Pkt: out}, nil
		},
	})

	Register(Spec{
		Action: ActionEndAM, Name: "End.AM",
		Validate: needOIF("End.AM"),
		// Outbound: advance, then masquerade — the VNF sees the final
		// destination (wire Segments[0]) instead of a SID, with the
		// SRH left in place for the return leg.
		Apply: func(b *Behaviour, raw []byte) (Result, error) {
			info, err := packet.ParseInfo(raw)
			if err != nil {
				return drop(), err
			}
			if !info.HasSRH() {
				return drop(), ErrNoSRH
			}
			if info.SegmentsLeft == 0 {
				return drop(), ErrZeroSegsLeft
			}
			srh := raw[info.SRHOff:]
			srh[packet.SRHOffSegmentsLeft] = info.SegmentsLeft - 1
			copy(raw[24:40], srh[packet.SRHOffSegments:packet.SRHOffSegments+16])
			return Result{Verdict: VerdictForwardOIF, Pkt: raw}, nil
		},
		// Inbound: de-masquerade — restore the active segment from
		// the untouched SRH and continue FIB forwarding.
		Inbound: func(b *Behaviour, raw []byte) (Result, error) {
			info, err := packet.ParseInfo(raw)
			if err != nil {
				return drop(), err
			}
			if !info.HasSRH() {
				return drop(), ErrNoSRH
			}
			if int(info.SegmentsLeft) > int(info.LastEntry) {
				return drop(), packet.ErrBadSRH
			}
			segOff := info.SRHOff + packet.SRHOffSegments + 16*int(info.SegmentsLeft)
			copy(raw[24:40], raw[segOff:segOff+16])
			return Result{Verdict: VerdictForward, Pkt: raw}, nil
		},
	})

	Register(Spec{
		Action: ActionEndBPF, Name: "End.BPF",
		Prog: true,
		Validate: func(b *Behaviour) error {
			if b.BPF == nil {
				return fmt.Errorf("%w: End.BPF needs a program", ErrBadBehaviour)
			}
			return nil
		},
	})
}
