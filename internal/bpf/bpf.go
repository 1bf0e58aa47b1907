// Package bpf ties the eBPF substrate together into the object model
// user code works with, in the style of the cilium/ebpf library: a
// ProgramSpec is assembled, verified against the hook it targets and
// loaded into a Program; Programs reference Maps by name; a
// Collection loads a set of maps and programs that share them.
//
// The hook layer (internal/core) defines the program types of the
// paper — LWT BPF transit hooks and the seg6local End.BPF hook — by
// supplying a verifier configuration (context size, helper
// signatures) and a helper dispatch table.
package bpf

import (
	"errors"
	"fmt"

	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/bpf/verifier"
	"srv6bpf/internal/bpf/vm"
)

// Errno values helpers return (negated) to programs, matching Linux.
const (
	ENOENT = 2
	E2BIG  = 7
	ENOMEM = 12
	EEXIST = 17
	EINVAL = 22
)

// Errno encodes -errno as the uint64 a helper returns.
func Errno(e int64) uint64 { return uint64(-e) }

// Hook describes an attachment point for programs: what the context
// looks like, which helpers exist, and how calls are checked.
type Hook struct {
	// Name identifies the hook ("lwt_in", "lwt_seg6local", ...).
	Name string
	// Verifier is the static-checking configuration, including the
	// helper signature whitelist.
	Verifier verifier.Config
	// Helpers dispatches helper calls at run time.
	Helpers *vm.HelperTable
}

// ProgramSpec describes a program before loading.
type ProgramSpec struct {
	Name string
	// Instructions may carry unresolved symbolic jumps; Load
	// assembles them.
	Instructions asm.Instructions
	// License mirrors the kernel's GPL-compatibility gate. Programs
	// that use helpers must declare a GPL-compatible license, as the
	// paper's artefacts do.
	License string
}

// LoadOptions tune program loading.
type LoadOptions struct {
	// JIT says whether the simulated CPU JIT-compiles the program, which
	// only the cost model reads (CostModel.BPFCost: the §3.2 factor of
	// 1.8); execution is the same either way. The zero value means enabled,
	// as on the paper's x86 router (their ARM32 CPE runs with the JIT
	// off; see §4.2).
	JIT *bool
	// MaxRuntimeInstructions caps one execution (safety net).
	MaxRuntimeInstructions uint64
}

func (o LoadOptions) jit() bool { return o.JIT == nil || *o.JIT }

var gplCompatible = map[string]bool{
	"GPL": true, "GPL v2": true, "GPL-2.0": true,
	"Dual BSD/GPL": true, "Dual MIT/GPL": true, "Dual MPL/GPL": true,
}

// Program is a verified program bound to a hook and its maps.
type Program struct {
	name    string
	hook    *Hook
	insns   asm.Instructions // assembled
	maps    map[string]*maps.Map
	opts    LoadOptions
	license string
}

// errors returned by loading.
var (
	ErrNoHook         = errors.New("bpf: program spec has no hook")
	ErrUnknownMap     = errors.New("bpf: program references unknown map")
	ErrBadLicense     = errors.New("bpf: helpers require a GPL-compatible license")
	ErrNotPerfEventer = errors.New("bpf: map is not a perf event array")
)

// LoadProgram assembles, verifies and prepares spec for hook.
// available supplies the maps the program may reference by name.
func LoadProgram(spec *ProgramSpec, hook *Hook, available map[string]*maps.Map, opts LoadOptions) (*Program, error) {
	if hook == nil {
		return nil, ErrNoHook
	}
	asmd, err := spec.Instructions.Assemble()
	if err != nil {
		return nil, fmt.Errorf("bpf: assembling %q: %w", spec.Name, err)
	}
	if err := verifier.Verify(asmd, hook.Verifier); err != nil {
		return nil, fmt.Errorf("bpf: loading %q: %w", spec.Name, err)
	}

	usesHelpers := false
	for _, ins := range asmd {
		if ins.OpCode.Class() == asm.ClassJump && ins.OpCode.JumpOp() == asm.Call {
			usesHelpers = true
			break
		}
	}
	if usesHelpers && !gplCompatible[spec.License] {
		return nil, fmt.Errorf("%w (got %q)", ErrBadLicense, spec.License)
	}

	used := make(map[string]*maps.Map)
	for i, ins := range asmd {
		if !ins.IsLoadFromMap() {
			continue
		}
		m, ok := available[ins.MapName]
		if !ok {
			return nil, fmt.Errorf("%w: %q at instruction %d of %q", ErrUnknownMap, ins.MapName, i, spec.Name)
		}
		used[ins.MapName] = m
	}

	return &Program{
		name:    spec.Name,
		hook:    hook,
		insns:   asmd,
		maps:    used,
		opts:    opts,
		license: spec.License,
	}, nil
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Hook returns the hook the program was verified for.
func (p *Program) Hook() *Hook { return p.hook }

// Instructions returns the assembled instruction stream (for
// disassembly tools).
func (p *Program) Instructions() asm.Instructions { return p.insns }

// MapBinding resolves a map handle (as seen by the program) back to
// the map object and its arena region. Helpers use it.
type MapBinding struct {
	Map   *maps.Map
	Arena vm.RegionID
}

// Instance is an executable incarnation of a Program: a VM machine
// with the program's maps installed in its address space. Instances
// are not safe for concurrent use; each simulated node owns its own.
type Instance struct {
	prog    *Program
	machine *vm.Machine
	exec    *vm.Executable
	mem     *vm.Memory
	// ctxSeg and pktSeg are installed once; the hook layer rebinds
	// their Data per packet instead of allocating fresh segments.
	ctxSeg *vm.Segment
	pktSeg *vm.Segment
	// bindings indexes map handle regions.
	bindings map[vm.RegionID]MapBinding
}

// NewInstance builds an instance. Map arenas are shared: every
// instance of every program sees the same map contents, exactly like
// kernel maps shared across program invocations and user space.
func (p *Program) NewInstance() (*Instance, error) {
	mem := vm.NewMemory()
	inst := &Instance{
		prog:     p,
		mem:      mem,
		ctxSeg:   &vm.Segment{},
		pktSeg:   &vm.Segment{},
		bindings: make(map[vm.RegionID]MapBinding),
	}
	mem.SetSegment(vm.RegionCtx, inst.ctxSeg)
	mem.SetSegment(vm.RegionPacket, inst.pktSeg)

	handles := make(map[string]uint64)
	for name, m := range p.maps {
		arena := vm.RegionID(0)
		if m.Arena() != nil {
			arena = mem.AddSegment(&vm.Segment{Data: m.Arena(), Writable: true})
		}
		binding := MapBinding{Map: m, Arena: arena}
		handle := mem.AddSegment(&vm.Segment{Object: binding})
		inst.bindings[handle] = binding
		handles[name] = vm.Pointer(handle, 0)
	}

	resolver := func(name string) (uint64, error) {
		h, ok := handles[name]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrUnknownMap, name)
		}
		return h, nil
	}

	exec, err := vm.NewExecutable(p.insns, resolver, p.opts.jit())
	if err != nil {
		return nil, fmt.Errorf("bpf: instantiating %q: %w", p.name, err)
	}
	inst.exec = exec
	inst.machine = vm.NewMachine(mem, p.hook.Helpers)
	inst.machine.MaxInstructions = p.opts.MaxRuntimeInstructions
	return inst, nil
}

// Memory exposes the instance address space so the hook layer can
// install context and packet segments before each run.
func (i *Instance) Memory() *vm.Memory { return i.mem }

// BindCtx points the context region at data without allocating: the
// segment installed by NewInstance is rebound in place. The context
// is read-only to programs, like __sk_buff fields behind the
// verifier's ctx access checks.
func (i *Instance) BindCtx(data []byte) { i.ctxSeg.Data = data }

// BindPacket points the packet region at data without allocating.
// This is the per-packet fast path: install once, rebind every run.
func (i *Instance) BindPacket(data []byte) { i.pktSeg.Data = data }

// Machine exposes the underlying VM (the hook layer sets
// HelperContext on it per invocation).
func (i *Instance) Machine() *vm.Machine { return i.machine }

// Program returns the loaded program this instance executes.
func (i *Instance) Program() *Program { return i.prog }

// JIT reports whether the simulated CPU runs the instance JIT-compiled
// (the cost model charges interpreted execution more, §3.2).
func (i *Instance) JIT() bool { return i.exec.JIT() }

// Binding resolves a map handle value to its binding. Helpers call
// this with the raw register value a program passed as a map
// argument.
func (i *Instance) Binding(handle uint64) (MapBinding, bool) {
	b, ok := i.bindings[vm.Region(handle)]
	return b, ok
}

// ResolveBinding is the helper-side lookup used when only the machine
// is at hand: it walks the handle region's segment object.
func ResolveBinding(m *vm.Machine, handle uint64) (MapBinding, bool) {
	seg := m.Mem.Segment(vm.Region(handle))
	if seg == nil || seg.Object == nil {
		return MapBinding{}, false
	}
	b, ok := seg.Object.(MapBinding)
	return b, ok
}

// Run executes the instance with ctx as the program argument.
func (i *Instance) Run(ctx uint64) (uint64, error) {
	return i.machine.Run(i.exec, ctx)
}

// Executed returns retired-instruction accounting for the cost model.
func (i *Instance) Executed() uint64 { return i.machine.Executed }

// ResetExecuted clears the instruction counter.
func (i *Instance) ResetExecuted() { i.machine.Executed = 0 }
