// Package tcpsim provides the TCP substrate for the paper's hybrid
// access experiment (§4.2): a NewReno-style sender (slow start,
// congestion avoidance, 3-dup-ack fast retransmit and fast recovery,
// RFC 6298 retransmission timer) and a cumulative-ACK receiver with
// an out-of-order reassembly buffer.
//
// Loss detection models the Linux 4.18 stack the paper ran: fast
// retransmit requires both three duplicate ACKs and — RACK-style — the
// unacknowledged head to be older than SRTT plus a reordering window
// of SRTT/4. Reordering within the window (what remains after the
// §4.2 delay compensation) is therefore tolerated, while the
// uncompensated ~12.5 ms path skew far exceeds it and produces
// exactly the paper's failure mode: "our first experiments with TCP
// in this environment were a disaster ... the TCP goodput could only
// reach 3.8 Mbps" despite 80 Mbps of capacity.
package tcpsim

import (
	"fmt"
	"net/netip"

	"srv6bpf/internal/netsim"
	"srv6bpf/internal/packet"
)

// HeaderReserve is the headroom every segment and ACK is built with:
// an outer IPv6 header plus a one-segment SRH, what the hybrid-access
// tunnel ingress (§4.2) pushes in front of each of them. Like the
// kernel's MAX_TCP_HEADER it is a property of the stack, not of a
// connection — sized so that a default-MSS segment with its reserve
// (64 + 40 + 20 + 1400 = 1524 bytes) still fits the 1536-byte
// allocation class a bare one occupies. A longer SRH than this simply
// finds too little room and is encapsulated into a new buffer.
const HeaderReserve = packet.IPv6HeaderLen + packet.SRHFixedLen + 16

// Config tunes a transfer.
type Config struct {
	// MSS is the segment payload size in bytes (default 1400, the
	// paper's large-payload operating point).
	MSS int
	// InitialWindow in segments (default 10, Linux of that era).
	InitialWindow int
	// MinRTO floors the retransmission timeout (default 200 ms, as in
	// Linux).
	MinRTO int64
	// FlowLabel identifies the connection's IPv6 flow.
	FlowLabel uint32
}

func (c *Config) setDefaults() {
	if c.MSS == 0 {
		c.MSS = 1400
	}
	if c.InitialWindow == 0 {
		c.InitialWindow = 10
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * netsim.Millisecond
	}
}

// Stack demultiplexes TCP segments on one node by destination port.
// Register at most one Stack per node.
type Stack struct {
	node      *netsim.Node
	endpoints map[uint16]endpoint
}

type endpoint interface {
	input(seg packet.TCP, payloadLen int, src netip.Addr)
}

// NewStack installs a TCP input handler on node. An endpoint is handed
// the decoded header, the payload's length and the source address, not
// the packet: the stack has released it (netsim.Node.Release) by then,
// ahead of whatever the endpoint sends in reply, which is then built in
// the buffer of a packet that just died.
func NewStack(node *netsim.Node) *Stack {
	s := &Stack{node: node, endpoints: make(map[uint16]endpoint)}
	node.HandleTCP(func(n *netsim.Node, p *packet.Packet, meta *netsim.PacketMeta) {
		seg, err := packet.DecodeTCP(p.Raw[p.L4Off:])
		if err != nil {
			n.Count("tcp_malformed")
			return
		}
		ep, ok := s.endpoints[seg.DstPort]
		if !ok {
			n.Count("tcp_no_endpoint")
			return
		}
		payloadLen, src := len(p.Raw)-p.L4Off-int(seg.DataOff), p.IPv6.Src
		n.Release(meta)
		ep.input(seg, payloadLen, src)
	})
	return s
}

func (s *Stack) register(port uint16, ep endpoint) error {
	if _, dup := s.endpoints[port]; dup {
		return fmt.Errorf("tcpsim: port %d already bound on %s", port, s.node.Name)
	}
	s.endpoints[port] = ep
	return nil
}

// Sender is the transmitting side of a bulk transfer.
type Sender struct {
	node     *netsim.Node
	stack    *Stack
	cfg      Config
	src, dst netip.Addr
	srcPort  uint16
	dstPort  uint16
	running  bool
	stopped  bool
	// payload is the MSS zero bytes every data segment carries. It is
	// never written after construction (BuildPacket copies it), so all
	// segments share it.
	payload []byte

	// Sequence state, in absolute bytes (no wraparound handling
	// needed for simulated volumes).
	sndNxt uint64
	sndUna uint64

	// Congestion control, in bytes.
	cwnd     float64
	ssthresh float64

	// Fast recovery (NewReno).
	dupAcks   int
	inRecover bool
	recover   uint64

	// RTT estimation (RFC 6298).
	srtt, rttvar, rto int64
	timedSeq          uint64 // sequence being timed for an RTT sample
	timedAt           int64
	timedValid        bool
	minRTT            int64 // for the HyStart-style slow-start exit

	// Retransmission timer. Re-arming — once per ACK — only moves
	// rtoDeadline; one timer event does the waiting: when it fires
	// before the deadline it re-schedules itself at the deadline, so a
	// timeout still runs at exactly last-arm + RTO and the event queue
	// holds one timer per sender instead of one per ACK of the last
	// RTO. rtoTimerAt is the instant of that event (0: none pending);
	// an RTO that shrinks below it (the first RTT sample replacing the
	// 1 s initial RTO) schedules an earlier event and leaves the later
	// one to fire dead. rtoTimer is s.onRTOTimer bound once, so
	// scheduling it allocates nothing.
	rtoArmed    bool
	rtoDeadline int64
	rtoTimerAt  int64
	rtoTimer    func()

	// sendTimes records the most recent transmit time per segment
	// (RACK-style), for the reordering-tolerant retransmit decision.
	sendTimes map[uint64]int64
	// rackRTT is the delivery RTT of the most recent SACK-reported
	// segment: RACK's reference clock for declaring the head lost.
	rackRTT int64
	// reoWndMult scales the reordering window. DSACKs (evidence that
	// a retransmission was spurious) grow it, as Linux RACK does, up
	// to reoWndMaxMult quarters of min_rtt.
	reoWndMult int
	// undoCwnd/undoSsthresh remember the pre-recovery state so a
	// DSACK can undo a spurious reduction (Eifel-style). undoRetrans
	// counts retransmissions since recovery began: as in Linux, the
	// reduction is undone only when every one of them has been proven
	// spurious by a DSACK.
	undoCwnd, undoSsthresh float64
	undoRetrans            int

	// DSACKs counts duplicate-SACK signals received.
	DSACKs uint64

	// Statistics.
	SegmentsSent   uint64
	Retransmits    uint64
	FastRecoveries uint64
	Timeouts       uint64
}

// Receiver is the receiving side.
type Receiver struct {
	node        *netsim.Node
	src         netip.Addr
	port        uint16
	peer        netip.Addr
	srcPortHint uint16 // the sender's port, learned from data segments
	peerSet     bool
	rcvNxt      uint64
	// ooo maps out-of-order segment start -> length.
	ooo map[uint64]int

	// GoodputBytes counts in-order delivered payload.
	GoodputBytes uint64
	// OutOfOrderSegs counts segments that arrived ahead of sequence.
	OutOfOrderSegs uint64
	// DupSegs counts duplicate (already delivered) segments.
	DupSegs uint64
	// firstByteAt/lastByteAt bound the delivery interval.
	firstByteAt, lastByteAt int64
	haveFirst               bool
}

// NewTransfer wires a bulk sender on src to a receiver on dst.
// Both nodes must have Stacks.
func NewTransfer(srcStack, dstStack *Stack, srcAddr, dstAddr netip.Addr, srcPort, dstPort uint16, cfg Config) (*Sender, *Receiver, error) {
	cfg.setDefaults()
	snd := &Sender{
		node:      srcStack.node,
		stack:     srcStack,
		cfg:       cfg,
		src:       srcAddr,
		dst:       dstAddr,
		srcPort:   srcPort,
		dstPort:   dstPort,
		payload:   make([]byte, cfg.MSS),
		cwnd:      float64(cfg.InitialWindow * cfg.MSS),
		ssthresh:  1 << 30,
		rto:       netsim.Second, // RFC 6298 initial RTO
		sendTimes: make(map[uint64]int64),
	}
	snd.rtoTimer = snd.onRTOTimer
	rcv := &Receiver{
		node: dstStack.node,
		src:  dstAddr,
		port: dstPort,
		ooo:  make(map[uint64]int),
	}
	if err := srcStack.register(srcPort, snd); err != nil {
		return nil, nil, err
	}
	if err := dstStack.register(dstPort, rcv); err != nil {
		return nil, nil, err
	}
	return snd, rcv, nil
}

// Start begins transmitting at the current simulation time and keeps
// the pipe full until Stop.
func (s *Sender) Start() {
	s.running = true
	s.trySend()
}

// Stop ceases new transmissions (retransmissions also stop; the
// experiment measures the delivery side).
func (s *Sender) Stop() {
	s.running = false
	s.stopped = true
	s.rtoArmed = false
}

func (s *Sender) inflight() uint64 { return s.sndNxt - s.sndUna }

// trySend fills the congestion window.
func (s *Sender) trySend() {
	if !s.running {
		return
	}
	for float64(s.inflight())+float64(s.cfg.MSS) <= s.cwnd {
		s.sendSegment(s.sndNxt, false)
		s.sndNxt += uint64(s.cfg.MSS)
	}
	s.armRTO()
}

func (s *Sender) sendSegment(seq uint64, isRtx bool) {
	hdr := packet.TCP{
		SrcPort: s.srcPort,
		DstPort: s.dstPort,
		Seq:     uint32(seq),
		Flags:   packet.TCPFlagACK,
		Window:  65535,
	}
	buf, err := packet.BuildPacketIn(s.node.PacketBuf, HeaderReserve, s.src, s.dst,
		packet.WithTCP(hdr),
		packet.WithPayload(s.payload),
		packet.WithFlowLabel(s.cfg.FlowLabel))
	if err != nil {
		return
	}
	s.SegmentsSent++
	s.sendTimes[seq] = s.node.Now()
	if isRtx {
		s.Retransmits++
		s.undoRetrans++
		if s.timedSeq == seq {
			s.timedValid = false // Karn's algorithm
		}
	} else if !s.timedValid {
		s.timedSeq = seq
		s.timedAt = s.node.Now()
		s.timedValid = true
	}
	s.node.OutputBuf(buf, HeaderReserve)
}

// input handles an incoming (ACK) segment.
func (s *Sender) input(seg packet.TCP, _ int, src netip.Addr) {
	if s.stopped {
		return
	}
	ack := s.unwrapAck(seg.Ack)

	// RACK: a SACK block reports an out-of-order delivery; the
	// highest covered segment is the most recently sent one that
	// arrived, and its age is the freshest RTT signal. A block at or
	// below the cumulative ACK is a DSACK — proof that a
	// retransmission was spurious — and widens the reordering window
	// and undoes the unnecessary cwnd reduction, as Linux does.
	if seg.HasSACK() {
		right := s.unwrapAck(seg.SACKRight)
		if right <= s.sndUna {
			s.DSACKs++
			if s.reoWndMult < reoWndMaxMult {
				s.reoWndMult++
			}
			if s.undoRetrans > 0 {
				s.undoRetrans--
			}
			if !s.inRecover && s.undoRetrans == 0 && s.undoCwnd > s.cwnd {
				s.cwnd = s.undoCwnd
				s.ssthresh = s.undoSsthresh
				s.undoCwnd = 0
				s.trySend()
			}
		} else if right >= uint64(s.cfg.MSS) {
			if sent, ok := s.sendTimes[right-uint64(s.cfg.MSS)]; ok {
				s.rackRTT = s.node.Now() - sent
			}
		}
	}

	if ack > s.sndUna {
		// New data acknowledged.
		if s.timedValid && ack > s.timedSeq {
			s.rttSample(s.node.Now() - s.timedAt)
			s.timedValid = false
		}
		for q := s.sndUna; q < ack; q += uint64(s.cfg.MSS) {
			delete(s.sendTimes, q)
		}
		s.sndUna = ack
		s.dupAcks = 0
		if s.inRecover {
			if ack >= s.recover {
				// Full recovery: deflate.
				s.inRecover = false
				s.cwnd = s.ssthresh
			} else {
				// Partial ACK: retransmit next hole (NewReno).
				s.sendSegment(s.sndUna, true)
			}
		} else {
			mss := float64(s.cfg.MSS)
			if s.cwnd < s.ssthresh {
				s.cwnd += mss // slow start
			} else {
				s.cwnd += mss * mss / s.cwnd // congestion avoidance
			}
		}
		s.armRTO()
		s.trySend()
		return
	}

	// Duplicate ACK.
	if ack == s.sndUna && s.inflight() > 0 {
		s.dupAcks++
		switch {
		case !s.inRecover && s.dupAcks >= 3 && s.headExpired():
			// Fast retransmit + fast recovery, gated RACK-style on the
			// head's age: reordering inside the SRTT/4 window never
			// fires this; path skew beyond it does — spuriously, which
			// is the §4.2 collapse.
			s.FastRecoveries++
			s.undoCwnd = s.cwnd
			s.undoSsthresh = s.ssthresh
			s.undoRetrans = 0
			s.ssthresh = maxF(float64(s.inflight())/2, 2*float64(s.cfg.MSS))
			s.cwnd = s.ssthresh + 3*float64(s.cfg.MSS)
			s.inRecover = true
			s.recover = s.sndNxt
			s.sendSegment(s.sndUna, true)
		case s.inRecover:
			s.cwnd += float64(s.cfg.MSS) // window inflation
			s.trySend()
		}
	}
}

// headExpired reports whether the oldest unacknowledged segment has
// been outstanding longer than the path's minimum RTT plus the
// reordering window (RACK anchors reo_wnd on min_rtt), so that
// duplicate ACKs indicate loss rather than reordering. A path whose
// delay skew exceeds min_rtt/4 — the paper's uncompensated 12.5 ms —
// defeats this tolerance; post-compensation jitter does not.
func (s *Sender) headExpired() bool {
	sent, ok := s.sendTimes[s.sndUna]
	if !ok {
		return true // no information: classic dupack behaviour
	}
	base := s.rackRTT
	if base == 0 {
		base = s.minRTT
	}
	if base == 0 {
		return true
	}
	reoWnd := maxI(int64(1+s.reoWndMult)*s.minRTT/4, 2*netsim.Millisecond)
	return s.node.Now()-sent > base+reoWnd
}

// reoWndMaxMult caps the adaptive reordering window at roughly one
// min_rtt's worth, mirroring Linux's bounded reo_wnd steps.
const reoWndMaxMult = 4

// unwrapAck reconstructs the absolute ack from the 32-bit wire field
// using the current window position.
func (s *Sender) unwrapAck(ack32 uint32) uint64 {
	base := s.sndUna
	candidate := base&^0xffffffff | uint64(ack32)
	// Choose the representative closest to the window.
	if candidate+1<<31 < base {
		candidate += 1 << 32
	} else if candidate > base+1<<31 && candidate >= 1<<32 {
		candidate -= 1 << 32
	}
	return candidate
}

func (s *Sender) rttSample(m int64) {
	if s.srtt == 0 {
		s.srtt = m
		s.rttvar = m / 2
	} else {
		d := s.srtt - m
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + m) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}

	// HyStart-style delay increase detection, as Linux has used since
	// 2.6.29: leave slow start when queueing delay builds up instead
	// of driving the bottleneck queue into mass loss (which SACK-less
	// NewReno recovers from one segment per RTT).
	if s.minRTT == 0 || m < s.minRTT {
		s.minRTT = m
	}
	if s.cwnd < s.ssthresh {
		thresh := s.minRTT + maxI(s.minRTT/2, 4*netsim.Millisecond)
		if m > thresh {
			s.ssthresh = s.cwnd
		}
	}
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// armRTO restarts the retransmission timer at now + RTO, or stops it
// when nothing is in flight.
func (s *Sender) armRTO() {
	if s.inflight() == 0 {
		s.rtoArmed = false
		return
	}
	s.rtoArmed = true
	s.rtoDeadline = s.node.Now() + s.rto
	if s.rtoTimerAt == 0 || s.rtoDeadline < s.rtoTimerAt {
		s.scheduleRTOTimer()
	}
}

func (s *Sender) scheduleRTOTimer() {
	s.rtoTimerAt = s.rtoDeadline
	s.node.Schedule(s.rtoDeadline, s.rtoTimer)
}

// onRTOTimer is the timer event: a timeout if the deadline has been
// reached, otherwise another wait until the deadline ACKs have pushed
// out since it was scheduled.
func (s *Sender) onRTOTimer() {
	now := s.node.Now()
	if now != s.rtoTimerAt {
		return // superseded by an earlier timer after the RTO shrank
	}
	s.rtoTimerAt = 0
	if !s.rtoArmed || s.stopped {
		return
	}
	if now < s.rtoDeadline {
		s.scheduleRTOTimer()
		return
	}
	s.onTimeout()
}

func (s *Sender) onTimeout() {
	if s.inflight() == 0 {
		return
	}
	s.Timeouts++
	s.ssthresh = maxF(float64(s.inflight())/2, 2*float64(s.cfg.MSS))
	s.cwnd = float64(s.cfg.MSS)
	s.inRecover = false
	s.dupAcks = 0
	s.rto *= 2
	if s.rto > 60*netsim.Second {
		s.rto = 60 * netsim.Second
	}
	s.sendSegment(s.sndUna, true)
	s.armRTO()
}

// SRTT exposes the smoothed RTT estimate (diagnostics).
func (s *Sender) SRTT() int64 { return s.srtt }

// Cwnd exposes the congestion window in bytes (diagnostics).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// input handles a data segment at the receiver.
func (r *Receiver) input(seg packet.TCP, n int, src netip.Addr) {
	if !r.peerSet {
		r.peer = src
		r.srcPortHint = seg.SrcPort
		r.peerSet = true
	}
	seq := r.unwrapSeq(seg.Seq)
	now := r.node.Now()

	switch {
	case seq == r.rcvNxt:
		r.deliver(n, now)
		// Drain contiguous out-of-order segments.
		for {
			l, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.deliver(l, now)
		}
	case seq > r.rcvNxt:
		r.OutOfOrderSegs++
		if _, dup := r.ooo[seq]; !dup {
			r.ooo[seq] = n
		}
	default:
		r.DupSegs++
	}
	r.sendAck(seq, n)
}

// sackBlock returns a contiguous out-of-order range starting at the
// just-arrived segment (RFC 2018: the first SACK block reports the
// most recently received segment's block). The walk is bounded — a
// sub-block is still valid SACK information, and the sender only
// needs the right edge for its RACK clock. ok is false when the
// arrival was in-order (no block to report).
func (r *Receiver) sackBlock(arrival uint64) (left, right uint64, ok bool) {
	if _, present := r.ooo[arrival]; !present {
		return 0, 0, false
	}
	left = arrival
	right = arrival
	for i := 0; i < 32; i++ {
		n, found := r.ooo[right]
		if !found {
			break
		}
		right += uint64(n)
	}
	return left, right, true
}

func (r *Receiver) deliver(n int, now int64) {
	if !r.haveFirst {
		r.firstByteAt = now
		r.haveFirst = true
	}
	r.lastByteAt = now
	r.rcvNxt += uint64(n)
	r.GoodputBytes += uint64(n)
}

func (r *Receiver) unwrapSeq(seq32 uint32) uint64 {
	base := r.rcvNxt
	candidate := base&^0xffffffff | uint64(seq32)
	if candidate+1<<31 < base {
		candidate += 1 << 32
	} else if candidate > base+1<<31 && candidate >= 1<<32 {
		candidate -= 1 << 32
	}
	return candidate
}

func (r *Receiver) sendAck(arrival uint64, n int) {
	hdr := packet.TCP{
		SrcPort: r.port,
		DstPort: ackPortFor(r),
		Seq:     0,
		Ack:     uint32(r.rcvNxt),
		Flags:   packet.TCPFlagACK,
		Window:  65535,
	}
	if left, right, ok := r.sackBlock(arrival); ok {
		hdr.SACKLeft = uint32(left)
		hdr.SACKRight = uint32(right)
	}
	buf, err := packet.BuildPacketIn(r.node.PacketBuf, HeaderReserve, r.src, r.peer, packet.WithTCP(hdr))
	if err != nil {
		return
	}
	r.node.OutputBuf(buf, HeaderReserve)
}

// ackPortFor returns the sender's port. Pure ACKs flow back to the
// transfer's source port; with one sender per port pair this is the
// mirror of the data segments' source.
func ackPortFor(r *Receiver) uint16 { return r.srcPortHint }

// GoodputBps reports achieved goodput over the delivery interval.
func (r *Receiver) GoodputBps() float64 {
	if !r.haveFirst || r.lastByteAt <= r.firstByteAt {
		return 0
	}
	return float64(r.GoodputBytes) * 8 * 1e9 / float64(r.lastByteAt-r.firstByteAt)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
