package netsim

// Tests of the simulator side of the observability plane: the flight
// recorder must record the same spans at any shard count, and enabling
// it must not add per-packet allocations to the datapath. The full
// matrix (chaos campaigns, placements) is locked by the spans arm of
// the equivalence fuzzer in fuzz_equiv_test.go.

import (
	"reflect"
	"strings"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/packet"
)

// TestObsTraceShardEquivalence runs a cross-shard request/reply
// exchange with the recorder on: the 2-shard run must record exactly
// the spans the sequential run records, node by node.
func TestObsTraceShardEquivalence(t *testing.T) {
	run := func(shards int) []string {
		s := New(1)
		a, b, _ := twoHosts(s, netem.Config{RateBps: 1e10, DelayNs: 10 * Microsecond})
		s.EnableObs(ObsOptions{Trace: true})
		if err := s.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		b.HandleUDP(7, func(n *Node, p *packet.Packet, meta *PacketMeta) {
			reply, err := packet.BuildPacket(bAddr, aAddr, packet.WithUDP(7, 8), packet.WithPayload([]byte("pong")))
			if err != nil {
				panic(err)
			}
			n.Output(reply)
		})
		a.HandleUDP(8, func(n *Node, p *packet.Packet, meta *PacketMeta) {})
		for i := 0; i < 50; i++ {
			a.Schedule(int64(i)*3*Microsecond, func() { a.Output(udpTo(t, bAddr, 7, "ping")) })
		}
		s.Run()
		if shards > 1 && s.EngineStats().Messages != 100 {
			t.Fatalf("%d cross-shard messages, want 100", s.EngineStats().Messages)
		}
		var lines []string
		for _, tb := range s.TraceBufs() {
			lines = append(lines, tb.Node()+"|"+strings.Join(tb.Lines(), ";"))
		}
		return lines
	}
	seq, par := run(1), run(2)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("recorded spans diverged:\n  seq: %v\n  par: %v", seq, par)
	}
	if len(seq) == 0 || !strings.Contains(strings.Join(seq, "\n"), ":") {
		t.Fatalf("recorder captured nothing: %v", seq)
	}
}

// TestObsDatapathAllocParity pins the recorder's hot-path cost in
// allocations: a packet traversing the simulated datapath must
// allocate exactly as much with the full recorder on (every flow
// sampled) as with observability off.
func TestObsDatapathAllocParity(t *testing.T) {
	run := func(on bool) float64 {
		s := New(1)
		a, b, _ := twoHosts(s, netem.Config{RateBps: 1e10})
		b.HandleUDP(7, func(*Node, *packet.Packet, *PacketMeta) {})
		if on {
			s.EnableObs(ObsOptions{Trace: true, SampleShift: 0})
		}
		bufs := s.TraceBufs()
		raw := udpTo(t, bAddr, 7, "ping")
		work := make([]byte, len(raw))
		send := func() {
			copy(work, raw)
			a.Output(work)
			s.Run()
			// Truncate the journals between packets so the ring cannot
			// grow (growth would amortise to extra allocations).
			for _, tb := range bufs {
				tb.RestoreState(0)
			}
		}
		for i := 0; i < 64; i++ {
			send()
		}
		return testing.AllocsPerRun(500, send)
	}
	off := run(false)
	on := run(true)
	if on > off {
		t.Fatalf("recorder-on datapath allocates %.2f objects/packet vs %.2f with observability off", on, off)
	}
	t.Logf("allocs/packet: obs-off %.2f, recorder-on %.2f", off, on)
}
