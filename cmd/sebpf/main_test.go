package main

import (
	"bytes"
	"strings"
	"testing"
)

// wantList is what `sebpf list` prints: the eight bundled programs,
// their hook and their size.
const wantList = `add_tlv    lwt_seg6local    33 insns   Figure 2: Add TLV via bpf_lwt_seg6_adjust_srh
dm_encap   lwt_out          66 insns   §4.1: probabilistic DM encapsulation (transit)
end        lwt_seg6local     2 insns   Figure 2: the empty endpoint function
end_dm     lwt_seg6local    53 insns   §4.1/§4.2: End.DM delay reporting + decap
end_oamp   lwt_seg6local    53 insns   §4.3: ECMP nexthop query
end_t      lwt_seg6local    11 insns   Figure 2: End.T via bpf_lwt_seg6_action
tag_inc    lwt_seg6local    28 insns   Figure 2: Tag++ via bpf_lwt_seg6_store_bytes
wrr        lwt_out          59 insns   §4.2: weighted round-robin scheduler
`

// wantRunTagInc is what `sebpf run tag_inc` prints: Tag++ takes the
// tag from 41 to 42 through bpf_lwt_seg6_store_bytes, and the End
// behaviour takes Segments Left from 1 to 0.
const wantRunTagInc = `in:  IPv6 2001:db8:1::1 -> fc00:10::1 hl=64 SRH[sl=1 path=fc00:10::1 2001:db8:2::1 tag=41] UDP 1->2 len=12
verdict: forward (modelled cost 98 ns)
out: IPv6 2001:db8:1::1 -> 2001:db8:2::1 hl=64 SRH[sl=0 path=fc00:10::1 2001:db8:2::1 tag=42] UDP 1->2 len=12
`

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("sebpf %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestList(t *testing.T) {
	if got := runOK(t, "list"); got != wantList {
		t.Errorf("sebpf list:\n%s\nwant:\n%s", got, wantList)
	}
}

// TestVerifyAll verifies every bundled program against its hook.
func TestVerifyAll(t *testing.T) {
	reg := registry()
	if len(reg) != 8 {
		t.Fatalf("%d bundled programs, want 8", len(reg))
	}
	for name, e := range reg {
		got := runOK(t, "verify", name)
		if !strings.HasPrefix(got, e.spec.Name+": verification OK for hook "+e.hook.Name+" (") {
			t.Errorf("sebpf verify %s: %q", name, got)
		}
	}
}

func TestRunTagInc(t *testing.T) {
	if got := runOK(t, "run", "tag_inc"); got != wantRunTagInc {
		t.Errorf("sebpf run tag_inc:\n%s\nwant:\n%s", got, wantRunTagInc)
	}
}

func TestRunUnknownProgram(t *testing.T) {
	err := run([]string{"run", "nope"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), `unknown program "nope"`) {
		t.Errorf("sebpf run nope: %v", err)
	}
}
