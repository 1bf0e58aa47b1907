package tcpsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

// eagerRTO is the retransmission timer the sender had before the lazy
// one, kept as an oracle: every re-arm queues a closure carrying an
// epoch, and only the closure of the latest arm may time out. Installed
// on a sender it silences the sender's own timer event and drives
// onTimeout itself, so a transfer run under it is a transfer run with
// the old timer.
type eagerRTO struct {
	s *Sender

	// The old Sender.rtoArmed / Sender.rtoSeq.
	armed bool
	seq   uint64

	// The sender's timer state after the last event the oracle saw: a
	// change means that event called armRTO.
	sawArmed    bool
	sawDeadline int64

	onTimeout func()
}

// arm is the old Sender.armRTO, verbatim but for the receiver.
func (o *eagerRTO) arm() {
	s := o.s
	if s.inflight() == 0 {
		o.armed = false
		return
	}
	o.seq++
	epoch := o.seq
	o.armed = true
	s.node.After(s.rto, func() {
		if !o.armed || epoch != o.seq || s.stopped {
			return
		}
		o.onTimeout()
	})
}

// sync runs at the end of every event in which the sender can act and
// repeats the event's armRTO call, if it made one, on the oracle.
// Re-arming to an unchanged deadline goes unseen, and is a no-op under
// either timer.
func (o *eagerRTO) sync() {
	if s := o.s; s.rtoArmed != o.sawArmed || s.rtoDeadline != o.sawDeadline {
		o.sawArmed, o.sawDeadline = s.rtoArmed, s.rtoDeadline
		o.arm()
	}
}

// tapEndpoint runs after once the wrapped endpoint has handled a
// segment.
type tapEndpoint struct {
	inner endpoint
	after func()
}

func (e *tapEndpoint) input(seg packet.TCP, payloadLen int, src netip.Addr) {
	e.inner.input(seg, payloadLen, src)
	e.after()
}

type wireSeg struct {
	at  int64
	seq uint32
}

// transferLog is what one lossy transfer looked like from outside.
type transferLog struct {
	stats    string
	timeouts []int64   // instants at which onTimeout ran
	wire     []wireSeg // every data segment the sender put on the wire
}

type lossyCase struct {
	name     string
	link     netem.Config
	cfg      Config
	seed     int64
	duration int64
}

// runLossy runs one transfer with the sender's own timer (eager false)
// or with the eagerRTO oracle in its place.
func runLossy(t *testing.T, c lossyCase, eager bool) transferLog {
	t.Helper()
	sim, a, b := pipeTopoSeed(c.link, c.seed)
	sa := NewStack(a)
	snd, rcv, err := NewTransfer(sa, NewStack(b), sndAddr, rcvAddr, 40000, 5001, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var log transferLog
	a.Ifaces()[0].Tap = func(raw []byte) {
		log.wire = append(log.wire, wireSeg{a.Now(), binary.BigEndian.Uint32(raw[packet.IPv6HeaderLen+4:])})
	}
	sync := func() {}
	if eager {
		o := &eagerRTO{s: snd}
		o.onTimeout = func() {
			log.timeouts = append(log.timeouts, a.Now())
			snd.onTimeout()
			o.sync()
		}
		snd.rtoTimer = func() {}
		sa.endpoints[40000] = &tapEndpoint{inner: snd, after: o.sync}
		sync = o.sync
	} else {
		tick := snd.rtoTimer
		snd.rtoTimer = func() {
			before := snd.Timeouts
			tick()
			if snd.Timeouts != before {
				log.timeouts = append(log.timeouts, a.Now())
			}
		}
	}
	snd.Start()
	sync()
	sim.RunUntil(c.duration)
	snd.Stop()
	sync()
	sim.RunUntil(c.duration + netsim.Second)
	log.stats = fmt.Sprintf("sent=%d rtx=%d fr=%d to=%d dsack=%d good=%d ooo=%d dup=%d",
		snd.SegmentsSent, snd.Retransmits, snd.FastRecoveries, snd.Timeouts, snd.DSACKs,
		rcv.GoodputBytes, rcv.OutOfOrderSegs, rcv.DupSegs)
	return log
}

// TestLazyRTOMatchesEagerOracle: over lossy transfers the lazy timer
// times out exactly when the eager one did — same count, same virtual
// instants — and the sender puts the same segments on the wire at the
// same instants. The stats strings were recorded at the commit before
// the lazy timer (598bd11), with the eager timer inside the sender.
func TestLazyRTOMatchesEagerOracle(t *testing.T) {
	cases := []lossyCase{
		{name: "3pct-minrto200ms", seed: 46, duration: 10 * netsim.Second,
			link: netem.Config{RateBps: 20_000_000, DelayNs: 5 * netsim.Millisecond, Loss: 0.03}},
		{name: "2pct-minrto10ms", seed: 42, duration: 2 * netsim.Second,
			link: netem.Config{RateBps: 100_000_000, DelayNs: 500 * netsim.Microsecond, Loss: 0.02},
			cfg:  Config{MinRTO: 10 * netsim.Millisecond}},
		{name: "10pct-backoff", seed: 7, duration: 20 * netsim.Second,
			link: netem.Config{RateBps: 10_000_000, DelayNs: 20 * netsim.Millisecond, Loss: 0.10}},
		{name: "jitter-rto-above-floor", seed: 3, duration: 5 * netsim.Second,
			link: netem.Config{RateBps: 50_000_000, DelayNs: 2 * netsim.Millisecond, JitterNs: 1500 * netsim.Microsecond, Loss: 0.03},
			cfg:  Config{MinRTO: netsim.Millisecond}},
	}
	atParent := map[string]string{
		"3pct-minrto200ms":       "sent=2611 rtx=83 fr=53 to=15 dsack=0 good=3539200 ooo=646 dup=0",
		"2pct-minrto10ms":        "sent=6904 rtx=49 fr=4 to=1 dsack=0 good=3190600 ooo=6538 dup=0",
		"10pct-backoff":          "sent=206 rtx=22 fr=4 to=15 dsack=0 good=254800 ooo=52 dup=0",
		"jitter-rto-above-floor": "sent=3034 rtx=95 fr=55 to=24 dsack=0 good=4114600 ooo=523 dup=2",
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lazy, eager := runLossy(t, c, false), runLossy(t, c, true)
			if len(lazy.timeouts) == 0 {
				t.Fatalf("no timeout in %s: the case does not exercise the timer", lazy.stats)
			}
			if lazy.stats != eager.stats {
				t.Errorf("transfer diverged:\n  lazy:  %s\n  eager: %s", lazy.stats, eager.stats)
			}
			if want := atParent[c.name]; lazy.stats != want {
				t.Errorf("transfer differs from the parent commit:\n  now:    %s\n  parent: %s", lazy.stats, want)
			}
			if !slices.Equal(lazy.timeouts, eager.timeouts) {
				t.Errorf("timeout instants differ: lazy %d timeouts, eager %d; first difference at index %d",
					len(lazy.timeouts), len(eager.timeouts), firstDiff(lazy.timeouts, eager.timeouts))
			}
			if !slices.Equal(lazy.wire, eager.wire) {
				i := firstDiff(lazy.wire, eager.wire)
				t.Errorf("wire sequences differ at segment %d of %d/%d", i, len(lazy.wire), len(eager.wire))
			}
		})
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// ackedSender is a sender with its link cut — every segment dies at
// egress without an event — fed cumulative ACKs straight into input,
// one driver event each, 200 µs apart. The only other events in the sim
// are the sender's retransmission timers.
type ackedSender struct {
	sim  *netsim.Sim
	node *netsim.Node
	snd  *Sender
}

func newAckedSender(t *testing.T) *ackedSender {
	t.Helper()
	sim, a, b := pipeTopo(netem.Config{RateBps: 1e9})
	snd, _, err := NewTransfer(NewStack(a), NewStack(b), sndAddr, rcvAddr, 40000, 5001, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a.Ifaces()[0].Fail()
	snd.Start()
	return &ackedSender{sim: sim, node: a, snd: snd}
}

const ackGap = 200 * netsim.Microsecond

// ack delivers ACKs number from..to (ACK i acknowledges i segments).
func (d *ackedSender) ack(from, to int) {
	for i := from; i <= to; i++ {
		seg := packet.TCP{Ack: uint32(i * d.snd.cfg.MSS), Flags: packet.TCPFlagACK}
		at := int64(i) * ackGap
		d.node.Schedule(at, func() { d.snd.input(seg, 0, rcvAddr) })
		d.sim.RunUntil(at)
	}
}

// TestOneRTOTimerPerSender: however many ACKs re-arm the timer, the
// event queue holds one timer for the sender, where the eager timer
// held one per ACK of the last RTO (1,000 here). Measured from outside:
// after n ACKs the sender is stopped and the queue drained; with the
// link cut, every event of the drain is a timer that was pending. The
// second timer seen during the first second is the 1 s initial-RTO
// event, superseded when the first RTT sample shrank the RTO and left
// to fire dead. Stop leaves nothing that times out or re-schedules
// itself.
func TestOneRTOTimerPerSender(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000, 4999, 5001, 10000} {
		d := newAckedSender(t)
		d.ack(1, n)
		if d.snd.Timeouts != 0 || d.snd.inflight() == 0 {
			t.Fatalf("after %d ACKs: %d timeouts, %d bytes in flight; want an armed, unexpired timer", n, d.snd.Timeouts, d.snd.inflight())
		}
		d.snd.Stop()
		before := d.sim.EngineStats().Events
		d.sim.Run()
		pending := d.sim.EngineStats().Events - before
		want := uint64(1)
		if int64(n)*ackGap < netsim.Second {
			want = 2
		}
		if pending != want {
			t.Errorf("after %d ACKs: %d timer events pending, want %d", n, pending, want)
		}
		if d.snd.Timeouts != 0 {
			t.Errorf("after %d ACKs and Stop: %d timeouts fired", n, d.snd.Timeouts)
		}
	}

	// Across the whole run the timer costs one event per RTO, not one
	// per ACK.
	d := newAckedSender(t)
	const acks = 10000
	d.ack(1, acks)
	timers := d.sim.EngineStats().Events - acks
	if limit := uint64(acks*ackGap/d.snd.cfg.MinRTO) + 2; timers > limit {
		t.Errorf("%d timer events over %d ACKs, want at most %d (one per RTO)", timers, acks, limit)
	}

	// Left alone, the one pending timer does time out, at last ACK + RTO.
	d.sim.RunUntil(acks*ackGap + d.snd.rto)
	if d.snd.Timeouts != 1 {
		t.Errorf("%d timeouts one RTO after the last ACK, want 1", d.snd.Timeouts)
	}
}
