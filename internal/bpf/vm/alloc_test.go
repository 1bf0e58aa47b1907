package vm_test

import (
	"testing"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/vm"
	"srv6bpf/internal/core"
	"srv6bpf/internal/nf/progs"
)

// TestMachineRunZeroAlloc locks in the zero-allocation property of
// the interpreter: once an instance exists, Machine.Run on the End.BPF
// program (the paper's empty endpoint function) must not allocate. The
// array-backed Memory and the pre-decoded dispatch are what make this
// hold; a regression here silently reintroduces per-packet garbage on
// every simulated hop.
func TestMachineRunZeroAlloc(t *testing.T) {
	t.Run("interp", func(t *testing.T) {
		prog, err := bpf.LoadProgram(progs.EndSpec(), core.Seg6LocalHook(), nil, bpf.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := prog.NewInstance()
		if err != nil {
			t.Fatal(err)
		}
		ctx := make([]byte, core.CtxSize)
		inst.BindCtx(ctx)

		// Warm up once so lazy initialisation is out of the way.
		if _, err := inst.Run(vm.Pointer(vm.RegionCtx, 0)); err != nil {
			t.Fatal(err)
		}

		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := inst.Run(vm.Pointer(vm.RegionCtx, 0)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Machine.Run allocates %.1f objects per run, want 0", allocs)
		}
	})
}
