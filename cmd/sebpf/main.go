// Command sebpf inspects the eBPF network functions bundled with this
// repository: it lists them, disassembles them, verifies them against
// their hook, and round-trips them through the wire encoding.
//
// Usage:
//
//	sebpf list
//	sebpf dump <program>          disassemble a bundled program
//	sebpf verify <program>        run the verifier against its hook
//	sebpf asm <file> [hook]       assemble a text listing and verify it
//	                              (hook: seg6local [default] or lwt)
//	sebpf run <program>           execute a bundled program on a
//	                              synthetic SRv6 probe and show the
//	                              packet before and after
//	sebpf prog show [prog] [N]    run each program (or one) N times
//	                              (default 10) and print bpftool-style
//	                              statistics: run_cnt, instructions,
//	                              helper histogram, verdicts, faults
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/bpf/verifier"
	"srv6bpf/internal/core"
	"srv6bpf/internal/nf/progs"
)

// entry binds a bundled program to the hook it targets.
type entry struct {
	spec *bpf.ProgramSpec
	hook *bpf.Hook
	desc string
}

func registry() map[string]entry {
	seg6local := core.Seg6LocalHook()
	lwt := core.LWTOutHook()
	return map[string]entry{
		"end":      {progs.EndSpec(), seg6local, "Figure 2: the empty endpoint function"},
		"end_t":    {progs.EndTSpec(7), seg6local, "Figure 2: End.T via bpf_lwt_seg6_action"},
		"tag_inc":  {progs.TagIncrementSpec(), seg6local, "Figure 2: Tag++ via bpf_lwt_seg6_store_bytes"},
		"add_tlv":  {progs.AddTLVSpec(), seg6local, "Figure 2: Add TLV via bpf_lwt_seg6_adjust_srh"},
		"dm_encap": {progs.DMEncapSpec(), lwt, "§4.1: probabilistic DM encapsulation (transit)"},
		"end_dm":   {progs.EndDMSpec(), seg6local, "§4.1/§4.2: End.DM delay reporting + decap"},
		"wrr":      {progs.WRRSpec(), lwt, "§4.2: weighted round-robin scheduler"},
		"end_oamp": {progs.OAMPSpec(), seg6local, "§4.3: ECMP nexthop query"},
	}
}

// errUsage reports a command line sebpf does not understand; run has
// printed the usage line.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "sebpf:", err)
		os.Exit(1)
	}
}

// run executes one sebpf subcommand, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return usage()
	}
	reg := registry()
	switch args[0] {
	case "list":
		names := make([]string, 0, len(reg))
		for n := range reg {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			e := reg[n]
			asmd, err := e.spec.Instructions.Assemble()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-10s %-14s %4d insns   %s\n", n, e.hook.Name, asmd.WireLen(), e.desc)
		}
		return nil
	case "asm":
		if len(args) < 2 {
			return usage()
		}
		src, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		hook := core.Seg6LocalHook()
		if len(args) > 2 && args[2] == "lwt" {
			hook = core.LWTOutHook()
		}
		insns, err := asm.Parse(string(src))
		if err != nil {
			return err
		}
		asmd, err := insns.Assemble()
		if err != nil {
			return err
		}
		if err := verifier.Verify(asmd, hook.Verifier); err != nil {
			return err
		}
		wire, err := asmd.Bytes()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: assembled and verified for hook %s: %d wire slots (%d bytes)\n",
			args[1], hook.Name, asmd.WireLen(), len(wire))
		fmt.Fprint(stdout, asmd.String())
		return nil
	case "run":
		if len(args) < 2 {
			return usage()
		}
		e, err := lookup(reg, args[1])
		if err != nil {
			return err
		}
		return runProgram(stdout, args[1], e)
	case "prog":
		if len(args) < 2 || args[1] != "show" {
			return usage()
		}
		sel, runs, err := parseRuns(args[2:])
		if err != nil {
			return err
		}
		return progShow(stdout, reg, sel, runs)
	case "dump", "verify":
		if len(args) < 2 {
			return usage()
		}
		e, err := lookup(reg, args[1])
		if err != nil {
			return err
		}
		asmd, err := e.spec.Instructions.Assemble()
		if err != nil {
			return err
		}
		if args[0] == "dump" {
			// Round-trip through the wire format to prove the encoder
			// and disassembler agree.
			wire, err := asmd.Bytes()
			if err != nil {
				return err
			}
			back, err := asm.Disassemble(wire)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "; %s — hook %s, %d wire slots (%d bytes)\n",
				e.spec.Name, e.hook.Name, back.WireLen(), len(wire))
			fmt.Fprint(stdout, asmd.String())
			return nil
		}
		if err := verifier.Verify(asmd, e.hook.Verifier); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: verification OK for hook %s (%d wire slots)\n",
			e.spec.Name, e.hook.Name, asmd.WireLen())
		return nil
	default:
		return usage()
	}
}

// lookup finds a bundled program by name.
func lookup(reg map[string]entry, name string) (entry, error) {
	e, ok := reg[name]
	if !ok {
		return entry{}, fmt.Errorf("unknown program %q (try `sebpf list`)", name)
	}
	return e, nil
}

func usage() error {
	fmt.Fprintln(os.Stderr, "usage: sebpf list | dump <prog> | verify <prog> | run <prog> | prog show [prog] [runs] | asm <file> [seg6local|lwt]")
	return errUsage
}
