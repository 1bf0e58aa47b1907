package core

import (
	"errors"
	"fmt"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/vm"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
	"srv6bpf/internal/seg6"
)

// Attachment errors.
var (
	ErrWrongHook      = errors.New("core: program was loaded for a different hook")
	ErrNoSRH          = errors.New("core: End.BPF requires an SRv6 packet with segments left")
	ErrBadReturn      = errors.New("core: program returned an unknown code")
	ErrNoPendingState = errors.New("core: BPF_REDIRECT without a prior bpf_lwt_seg6_action")
	ErrSRHIntegrity   = errors.New("core: SRH failed revalidation after program writes")
)

// DefaultMaxFaults is the number of program faults an attachment
// tolerates before it is quarantined (see progFaults).
const DefaultMaxFaults = 3

// progFaults is an attachment's fault-quarantine state: a program
// that faults (VM error, not a clean BPF_DROP) maxFaults times on one
// attachment is quarantined — further packets are dropped and counted
// without running it, like the kernel detaching a misbehaving program
// rather than paying its fault path per packet.
type progFaults struct {
	faults      int
	maxFaults   int // 0 means DefaultMaxFaults
	quarantined bool
}

func (p *progFaults) limit() int {
	if p.maxFaults > 0 {
		return p.maxFaults
	}
	return DefaultMaxFaults
}

// recordFault counts one fault; it reports true when this fault
// crossed the quarantine threshold.
func (p *progFaults) recordFault() bool {
	p.faults++
	if !p.quarantined && p.faults >= p.limit() {
		p.quarantined = true
		return true
	}
	return false
}

// attachment is a program instantiated at a hook: what End.BPF and
// the LWT transit hook have in common. Instances are single-threaded,
// like one softirq context per simulated node — which is what lets the
// attachment own a single execEnv and ctx buffer reused for every
// packet instead of allocating per invocation.
type attachment struct {
	inst   *bpf.Instance
	name   string
	hook   string
	ctx    [CtxSize]byte
	env    execEnv
	faults progFaults
	stats  progCounters
}

// attach instantiates prog, which must have been loaded against hook.
func (a *attachment) attach(prog *bpf.Program, hook string) error {
	if prog.Hook().Name != hook {
		return fmt.Errorf("%w: %q is for hook %q", ErrWrongHook, prog.Name(), prog.Hook().Name)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		return err
	}
	a.inst, a.name, a.hook = inst, prog.Name(), hook
	a.env.printkPrefix = a.name
	// Bound once: helpers that replace the packet re-enter through
	// this, so the per-packet path never builds a closure.
	a.env.refreshRegions = func(env *execEnv) {
		installPacket(a.inst, a.ctx[:], env.pkt)
	}
	inst.BindCtx(a.ctx[:])
	return nil
}

// SetMaxFaults overrides the quarantine threshold (0 restores the
// default). Call it at setup time.
func (a *attachment) SetMaxFaults(n int) { a.faults.maxFaults = n }

// Quarantined reports whether the attachment has been quarantined.
func (a *attachment) Quarantined() bool { return a.faults.quarantined }

// Faults reports the attachment's fault count.
func (a *attachment) Faults() int { return a.faults.faults }

// refuses reports, and counts on n, that the attachment is quarantined
// and the packet is to be dropped without running the program.
func (a *attachment) refuses(n *netsim.Node) bool {
	if a.faults.quarantined {
		n.Count("drop_prog_quarantined")
	}
	return a.faults.quarantined
}

// run executes the program on raw and returns its return code and the
// model cost of the execution. The steady-state path performs zero heap
// allocations: the execution environment and ctx are reused. A VM fault
// is already accounted for when run returns it: recorded as an error
// verdict and counted towards quarantine. Of a run without fault the
// caller still owes the statistics its verdict.
func (a *attachment) run(n *netsim.Node, meta *netsim.PacketMeta, raw []byte, srhOff int, flow uint32) (uint64, int64, error) {
	a.env.beginRun(n, meta, raw, srhOff)

	machine := a.inst.Machine()
	machine.HelperContext = &a.env
	machine.HelperCounts = &a.stats.helperCnt
	fillCtx(a.ctx[:], len(raw), flow)
	installPacket(a.inst, a.ctx[:], raw)

	startInsns, startHelpers := machine.Executed, machine.HelperCalls
	ret, err := a.inst.Run(vm.Pointer(vm.RegionCtx, 0))
	dInsns, dHelpers := machine.Executed-startInsns, machine.HelperCalls-startHelpers
	a.stats.record(dInsns, dHelpers)
	if err != nil {
		// A faulting program drops the packet, like a kernel-side
		// bpf program error path; repeat offenders are quarantined.
		a.stats.verdicts[verdictError]++
		if a.faults.recordFault() {
			n.Count("prog_quarantined")
		}
	}
	return ret, n.Cost.BPFCost(dInsns, dHelpers, a.inst.JIT()), err
}

// EndBPF is a loaded End.BPF attachment: bind it to a SID with a
// RouteSeg6Local whose Behaviour is seg6.ActionEndBPF and BPF set to
// this value.
type EndBPF struct{ attachment }

// AttachEndBPF instantiates prog (loaded against Seg6LocalHook) as a
// seg6local End.BPF action.
func AttachEndBPF(prog *bpf.Program) (*EndBPF, error) {
	e := &EndBPF{}
	if err := e.attach(prog, "lwt_seg6local"); err != nil {
		return nil, err
	}
	return e, nil
}

// Behaviour builds the seg6local behaviour entry for this attachment.
func (e *EndBPF) Behaviour() *seg6.Behaviour {
	return &seg6.Behaviour{Action: seg6.ActionEndBPF, BPF: e}
}

// installPacket rebinds the packet region in place and fixes the ctx
// len and data_end after helpers replaced the packet. No allocation:
// the instance's packet segment is reused.
func installPacket(inst *bpf.Instance, ctx []byte, pkt []byte) {
	inst.BindPacket(pkt)
	fillCtxLen(ctx, len(pkt))
}

func fillCtxLen(ctx []byte, pktLen int) {
	ctx[CtxOffLen] = byte(pktLen)
	ctx[CtxOffLen+1] = byte(pktLen >> 8)
	ctx[CtxOffLen+2] = byte(pktLen >> 16)
	ctx[CtxOffLen+3] = byte(pktLen >> 24)
	end := vm.Pointer(vm.RegionPacket, uint64(pktLen))
	for i := 0; i < 8; i++ {
		ctx[CtxOffDataEnd+i] = byte(end >> (8 * i))
	}
}

// RunSeg6Local implements netsim.Seg6LocalProgram: the End.BPF
// datapath of §3 — one offset-only header walk, an in-place SRH
// advance, the program, and what its return code asks for.
func (e *EndBPF) RunSeg6Local(n *netsim.Node, raw []byte, meta *netsim.PacketMeta) (seg6.Result, int64, error) {
	drop := seg6.Result{Verdict: seg6.VerdictDrop}
	if e.refuses(n) {
		return drop, 0, nil
	}
	// End.BPF behaves as an endpoint: it only accepts SRv6 packets
	// with a current segment, and advances the SRH before the program
	// runs (§3).
	info, err := packet.ParseInfo(raw)
	if err != nil {
		return drop, 0, err
	}
	if !info.HasSRH() || info.SegmentsLeft == 0 {
		return drop, 0, ErrNoSRH
	}
	if err := seg6.AdvanceAt(raw, info.SRHOff); err != nil {
		return drop, 0, err
	}

	ret, cost, err := e.run(n, meta, raw, info.SRHOff, info.FlowLabel)
	if err != nil {
		return drop, cost, err
	}
	env := &e.env
	// §3.1: if the SRH was altered, a quick verification ensures it
	// is still valid; otherwise the packet is dropped.
	if env.srhModified {
		if err := validateSRH(env); err != nil {
			e.stats.verdicts[verdictError]++
			return drop, cost, err
		}
	}
	switch ret {
	case BPFOK:
		e.stats.verdicts[verdictOK]++
		env.adoptGrown()
		return seg6.Result{Verdict: seg6.VerdictForward, Pkt: env.pkt}, cost, nil
	case BPFDrop:
		e.stats.verdicts[verdictDrop]++
		return drop, cost, nil
	case BPFRedirect:
		if !env.hasPending {
			e.stats.verdicts[verdictError]++
			return drop, cost, ErrNoPendingState
		}
		e.stats.verdicts[verdictRedirect]++
		env.adoptGrown()
		res := env.pending
		res.Pkt = env.pkt
		return res, cost, nil
	default:
		e.stats.verdicts[verdictError]++
		return drop, cost, fmt.Errorf("%w: %d", ErrBadReturn, ret)
	}
}

func validateSRH(env *execEnv) error {
	start, end, err := env.srhBounds()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSRHIntegrity, err)
	}
	if err := packet.ValidateSRHBytes(env.pkt[start:end]); err != nil {
		return fmt.Errorf("%w: %v", ErrSRHIntegrity, err)
	}
	return nil
}

// LWT is a loaded transit attachment (BPF LWT out hook): bind it to a
// route with Kind RouteLWTBPF.
type LWT struct{ attachment }

// AttachLWT instantiates prog (loaded against LWTOutHook) as a
// transit program.
func AttachLWT(prog *bpf.Program) (*LWT, error) {
	l := &LWT{}
	if err := l.attach(prog, "lwt_out"); err != nil {
		return nil, err
	}
	return l, nil
}

// RunLWTOut implements netsim.LWTProgram. A single offset-only walk
// feeds both the SRH bookkeeping and the flow hash.
func (l *LWT) RunLWTOut(n *netsim.Node, raw []byte, meta *netsim.PacketMeta) ([]byte, netsim.LWTVerdict, int64, error) {
	if l.refuses(n) {
		return nil, netsim.LWTDrop, 0, nil
	}
	srhOff := -1
	var flowHash uint32
	if info, err := packet.ParseInfo(raw); err == nil {
		flowHash = info.FlowLabel
		if info.HasSRH() {
			srhOff = info.SRHOff
		}
	} else if len(raw) >= packet.IPv6HeaderLen && raw[0]>>4 == 6 {
		// A malformed extension chain does not hide the flow label:
		// any packet with a valid fixed header keeps its ctx hash, as
		// when the two were derived by separate walks.
		flowHash = uint32(raw[1]&0x0f)<<16 | uint32(raw[2])<<8 | uint32(raw[3])
	}
	ret, cost, err := l.run(n, meta, raw, srhOff, flowHash)
	if err != nil {
		return nil, netsim.LWTDrop, cost, err
	}
	switch ret {
	case BPFOK:
		l.stats.verdicts[verdictOK]++
		return l.env.pkt, netsim.LWTOK, cost, nil
	case BPFDrop:
		l.stats.verdicts[verdictDrop]++
		return nil, netsim.LWTDrop, cost, nil
	default:
		l.stats.verdicts[verdictError]++
		return nil, netsim.LWTDrop, cost, fmt.Errorf("%w: %d", ErrBadReturn, ret)
	}
}
