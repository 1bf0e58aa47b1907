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

// EndBPF is a loaded End.BPF attachment: bind it to a SID with a
// RouteSeg6Local whose Behaviour is seg6.ActionEndBPF and BPF set to
// this value. Instances are single-threaded, like one softirq context
// per simulated node — which is what lets the attachment own a single
// execEnv and ctx buffer reused for every packet instead of
// allocating per invocation.
type EndBPF struct {
	inst   *bpf.Instance
	name   string
	ctx    [CtxSize]byte
	env    execEnv
	faults progFaults
	stats  progCounters
}

// AttachEndBPF instantiates prog (loaded against Seg6LocalHook) as a
// seg6local End.BPF action.
func AttachEndBPF(prog *bpf.Program) (*EndBPF, error) {
	if prog.Hook().Name != "lwt_seg6local" {
		return nil, fmt.Errorf("%w: %q is for hook %q", ErrWrongHook, prog.Name(), prog.Hook().Name)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		return nil, err
	}
	e := &EndBPF{inst: inst, name: prog.Name()}
	e.env.printkPrefix = e.name
	// Bound once: helpers that replace the packet re-enter through
	// this, so the per-packet path never builds a closure.
	e.env.refreshRegions = func(env *execEnv) {
		installPacket(e.inst, e.ctx[:], env.pkt)
	}
	inst.BindCtx(e.ctx[:])
	return e, nil
}

// Behaviour builds the seg6local behaviour entry for this attachment.
func (e *EndBPF) Behaviour() *seg6.Behaviour {
	return &seg6.Behaviour{Action: seg6.ActionEndBPF, BPF: e}
}

// SetMaxFaults overrides the quarantine threshold (0 restores the
// default). Call it at setup time.
func (e *EndBPF) SetMaxFaults(n int) { e.faults.maxFaults = n }

// Quarantined reports whether the attachment has been quarantined.
func (e *EndBPF) Quarantined() bool { return e.faults.quarantined }

// Faults reports the attachment's fault count.
func (e *EndBPF) Faults() int { return e.faults.faults }

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
// datapath of §3. The steady-state path performs zero heap
// allocations: one offset-only header walk, an in-place SRH advance,
// and a reused execution environment.
func (e *EndBPF) RunSeg6Local(n *netsim.Node, raw []byte, meta *netsim.PacketMeta) (seg6.Result, int64, error) {
	if e.faults.quarantined {
		n.Count("drop_prog_quarantined")
		return seg6.Result{Verdict: seg6.VerdictDrop}, 0, nil
	}
	// End.BPF behaves as an endpoint: it only accepts SRv6 packets
	// with a current segment, and advances the SRH before the program
	// runs (§3).
	info, err := packet.ParseInfo(raw)
	if err != nil {
		return seg6.Result{Verdict: seg6.VerdictDrop}, 0, err
	}
	if !info.HasSRH() || info.SegmentsLeft == 0 {
		return seg6.Result{Verdict: seg6.VerdictDrop}, 0, ErrNoSRH
	}
	if err := seg6.AdvanceAt(raw, info.SRHOff); err != nil {
		return seg6.Result{Verdict: seg6.VerdictDrop}, 0, err
	}

	env := &e.env
	env.beginRun(n, meta, raw, info.SRHOff)

	machine := e.inst.Machine()
	machine.HelperContext = env
	machine.HelperCounts = &e.stats.helperCnt
	fillCtx(e.ctx[:], len(raw), info.FlowLabel)
	installPacket(e.inst, e.ctx[:], raw)

	startInsns, startHelpers := machine.Executed, machine.HelperCalls
	ret, runErr := e.inst.Run(vm.Pointer(vm.RegionCtx, 0))
	dInsns, dHelpers := machine.Executed-startInsns, machine.HelperCalls-startHelpers
	cost := n.Cost.BPFCost(dInsns, dHelpers, e.inst.JIT())

	if runErr != nil {
		// A faulting program drops the packet, like a kernel-side
		// bpf program error path; repeat offenders are quarantined.
		e.stats.record(dInsns, dHelpers, verdictError)
		if e.faults.recordFault() {
			n.Count("prog_quarantined")
		}
		return seg6.Result{Verdict: seg6.VerdictDrop}, cost, runErr
	}

	// §3.1: if the SRH was altered, a quick verification ensures it
	// is still valid; otherwise the packet is dropped.
	if env.srhModified {
		if err := e.validateSRH(env); err != nil {
			e.stats.record(dInsns, dHelpers, verdictError)
			return seg6.Result{Verdict: seg6.VerdictDrop}, cost, err
		}
	}

	switch ret {
	case BPFOK:
		e.stats.record(dInsns, dHelpers, verdictOK)
		return seg6.Result{Verdict: seg6.VerdictForward, Pkt: env.pkt}, cost, nil
	case BPFDrop:
		e.stats.record(dInsns, dHelpers, verdictDrop)
		return seg6.Result{Verdict: seg6.VerdictDrop}, cost, nil
	case BPFRedirect:
		if !env.hasPending {
			e.stats.record(dInsns, dHelpers, verdictError)
			return seg6.Result{Verdict: seg6.VerdictDrop}, cost, ErrNoPendingState
		}
		e.stats.record(dInsns, dHelpers, verdictRedirect)
		res := env.pending
		res.Pkt = env.pkt
		return res, cost, nil
	default:
		e.stats.record(dInsns, dHelpers, verdictError)
		return seg6.Result{Verdict: seg6.VerdictDrop}, cost, fmt.Errorf("%w: %d", ErrBadReturn, ret)
	}
}

func (e *EndBPF) validateSRH(env *execEnv) error {
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
type LWT struct {
	inst   *bpf.Instance
	name   string
	ctx    [CtxSize]byte
	env    execEnv
	faults progFaults
	stats  progCounters
}

// AttachLWT instantiates prog (loaded against LWTOutHook) as a
// transit program.
func AttachLWT(prog *bpf.Program) (*LWT, error) {
	if prog.Hook().Name != "lwt_out" {
		return nil, fmt.Errorf("%w: %q is for hook %q", ErrWrongHook, prog.Name(), prog.Hook().Name)
	}
	inst, err := prog.NewInstance()
	if err != nil {
		return nil, err
	}
	l := &LWT{inst: inst, name: prog.Name()}
	l.env.printkPrefix = l.name
	l.env.refreshRegions = func(env *execEnv) {
		installPacket(l.inst, l.ctx[:], env.pkt)
	}
	inst.BindCtx(l.ctx[:])
	return l, nil
}

// SetMaxFaults overrides the quarantine threshold (0 restores the
// default). Call it at setup time.
func (l *LWT) SetMaxFaults(n int) { l.faults.maxFaults = n }

// Quarantined reports whether the attachment has been quarantined.
func (l *LWT) Quarantined() bool { return l.faults.quarantined }

// Faults reports the attachment's fault count.
func (l *LWT) Faults() int { return l.faults.faults }

// RunLWTOut implements netsim.LWTProgram. Like RunSeg6Local, a single
// offset-only walk feeds both the SRH bookkeeping and the flow hash,
// and the execution environment is reused across packets.
func (l *LWT) RunLWTOut(n *netsim.Node, raw []byte, meta *netsim.PacketMeta) ([]byte, netsim.LWTVerdict, int64, error) {
	if l.faults.quarantined {
		n.Count("drop_prog_quarantined")
		return nil, netsim.LWTDrop, 0, nil
	}
	env := &l.env
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
	env.beginRun(n, meta, raw, srhOff)

	machine := l.inst.Machine()
	machine.HelperContext = env
	machine.HelperCounts = &l.stats.helperCnt
	fillCtx(l.ctx[:], len(raw), flowHash)
	installPacket(l.inst, l.ctx[:], raw)

	startInsns, startHelpers := machine.Executed, machine.HelperCalls
	ret, runErr := l.inst.Run(vm.Pointer(vm.RegionCtx, 0))
	dInsns, dHelpers := machine.Executed-startInsns, machine.HelperCalls-startHelpers
	cost := n.Cost.BPFCost(dInsns, dHelpers, l.inst.JIT())

	if runErr != nil {
		l.stats.record(dInsns, dHelpers, verdictError)
		if l.faults.recordFault() {
			n.Count("prog_quarantined")
		}
		return nil, netsim.LWTDrop, cost, runErr
	}
	switch ret {
	case BPFOK:
		l.stats.record(dInsns, dHelpers, verdictOK)
		return env.pkt, netsim.LWTOK, cost, nil
	case BPFDrop:
		l.stats.record(dInsns, dHelpers, verdictDrop)
		return nil, netsim.LWTDrop, cost, nil
	default:
		l.stats.record(dInsns, dHelpers, verdictError)
		return nil, netsim.LWTDrop, cost, fmt.Errorf("%w: %d", ErrBadReturn, ret)
	}
}
