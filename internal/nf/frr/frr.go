// Package frr implements fast reroute with in-band failure
// detection, the follow-up use case to the paper ("Flexible failure
// detection and fast reroute using eBPF and SRv6", Xhonneux &
// Bonaventure): the protecting router continuously probes each
// neighbour across the protected link with SRv6 liveness probes, an
// End.BPF tracker records per-neighbour last-seen timestamps in a
// hash map, and once K consecutive probes are missed the detector
// flips a state map that an LWT steering program reads per packet —
// traffic is then encapsulated onto a precomputed backup segment
// list (TI-LFA-style local protection) instead of the primary path.
//
// The data plane is pure eBPF (internal/nf/progs: frr_probe,
// frr_track, frr_steer); this package is the user-space half — map
// setup, route installation, the probe scheduler and the miss
// detector. Recovery time is bounded by roughly
//
//	K × probe interval + one probe RTT
//
// when the failure hits just before a probe transmission, and by
// (K+1) × interval in the worst phase (a failure immediately after a
// probe returned wastes most of one interval before the first miss).
// internal/experiments.FRRRecovery measures this trade-off the way
// the paper's figures are reproduced. With Config.Damping the up
// transition additionally passes a hold-down with hysteresis (see
// Config); the down path is untouched, so the bound above survives
// damping, and internal/experiments.FRRFlapStorm measures the churn
// reduction under a flapping link.
//
// Counter note: consumed probes surface as drop_seg6local on the
// protecting router — the tracker returns BPF_DROP on purpose, like
// a BFD session absorbing its control packets.
package frr

import (
	"fmt"
	"net/netip"

	"srv6bpf/internal/bpf"
	"srv6bpf/internal/bpf/maps"
	"srv6bpf/internal/core"
	"srv6bpf/internal/netsim"
	"srv6bpf/internal/nf/progs"
	"srv6bpf/internal/packet"
)

// probePort is the UDP port carried inside liveness probes (the BFD
// single-hop port; the probe never reaches a listener — the tracker
// consumes it — but packets should look like what they model).
const probePort = 3784

// Config parameterises one protecting router.
type Config struct {
	// TrackSID is the local End.BPF SID that consumes returning
	// probes. It must be routable back to this node from every
	// monitored neighbour.
	TrackSID netip.Addr
	// ProbeInterval is the virtual time between liveness probes.
	ProbeInterval int64
	// Misses is K: consecutive missed probes before a neighbour is
	// declared down. At least 1.
	Misses int
	// JIT selects the execution engine for all FRR programs.
	JIT bool

	// Damping enables flap damping on the UP transition: once a
	// neighbour has been declared down, re-converging to the primary
	// path additionally requires (a) an exponentially-growing hold-down
	// timer to expire and (b) DampingGoodRounds consecutive healthy
	// probe rounds (hysteresis). The DOWN transition path is untouched,
	// so the clean single-failure recovery bound
	// K × interval + probe RTT still holds with damping enabled; what
	// damping bounds is route churn under a flapping link — the
	// detector converges to the backup path and stays there while the
	// flapping persists, instead of oscillating at the flap frequency.
	Damping bool
	// DampingMinHold is the first hold-down after a down transition;
	// each further down transition doubles the hold up to
	// DampingMaxHold. A neighbour that then stays up for at least
	// 2 × DampingMaxHold forgets its accumulated penalty. Defaults:
	// 4 × ProbeInterval and 16 × DampingMinHold.
	DampingMinHold int64
	DampingMaxHold int64
	// DampingGoodRounds is the hysteresis: consecutive healthy probe
	// rounds required, on top of hold expiry, before the neighbour is
	// declared up again. Default 2.
	DampingGoodRounds int
}

// Neighbor describes one monitored adjacency.
type Neighbor struct {
	// ID keys the neighbour in the lastseen/state maps.
	ID uint32
	// ProbeAddr is the probe trigger address: a /128 the protecting
	// router does NOT own, whose route carries the frr_probe LWT
	// program. Locally-generated packets to it become probes.
	ProbeAddr netip.Addr
	// SID is the neighbour's End SID, reachable only across the
	// protected link (so a returning probe proves that link alive).
	SID netip.Addr
	// Iface is the protected egress; probes are pinned to it.
	Iface *netsim.Iface
}

// Protection binds a traffic prefix to a neighbour's liveness and a
// backup segment list.
type Protection struct {
	// Prefix is the protected destination prefix.
	Prefix netip.Prefix
	// NeighborID names whose liveness gates the primary path.
	NeighborID uint32
	// PrimarySID is the decap SID across the primary link; healthy
	// traffic is encapsulated [PrimarySID].
	PrimarySID netip.Addr
	// Backup is the precomputed backup segment list in travel order
	// (1 or 2 segments); the last one must decapsulate.
	Backup []netip.Addr
}

// Transition records one up/down decision of the detector.
type Transition struct {
	NeighborID uint32
	Up         bool
	At         int64 // virtual time of the decision
}

// neighborState is the detector's view of one adjacency.
type neighborState struct {
	nb       Neighbor
	probe    []byte // prebuilt trigger packet
	lastSend int64  // virtual time of the most recent probe
	missed   int    // consecutive probes without a reply
	down     bool

	// Damping state (all zero while Config.Damping is off).
	holdNs     int64 // current hold-down length (exponential backoff)
	holdUntil  int64 // virtual time before which up transitions are held
	goodStreak int   // consecutive healthy rounds while down
	lastDownAt int64 // virtual time of the most recent down transition
}

// FRR is one protecting router's fast-reroute instance.
type FRR struct {
	node *netsim.Node
	cfg  Config

	// LastSeen (frr_lastseen) and NHState (frr_nh_state) are the
	// shared detection maps, exposed for tests and tooling.
	LastSeen *maps.Map
	NHState  *maps.Map

	track     *core.EndBPF
	neighbors []*neighborState
	stopped   bool

	// ProbesSent counts probe transmissions attempted (including ones
	// lost to a dead link).
	ProbesSent uint64
	// Transitions is the ordered log of detector decisions.
	Transitions []Transition
	// OnTransition, when set, observes each decision as it happens.
	OnTransition func(Transition)
}

// New loads the tracker program, creates the shared maps and installs
// the tracker SID on node.
func New(node *netsim.Node, cfg Config) (*FRR, error) {
	if cfg.Misses < 1 {
		cfg.Misses = 1
	}
	if cfg.ProbeInterval <= 0 {
		return nil, fmt.Errorf("frr: probe interval must be positive")
	}
	if cfg.Damping {
		if cfg.DampingMinHold <= 0 {
			cfg.DampingMinHold = 4 * cfg.ProbeInterval
		}
		if cfg.DampingMaxHold <= 0 {
			cfg.DampingMaxHold = 16 * cfg.DampingMinHold
		}
		if cfg.DampingGoodRounds <= 0 {
			cfg.DampingGoodRounds = 2
		}
	}
	lastSeen, err := maps.New(maps.Spec{
		Name: progs.FRRLastSeenMap, Type: maps.Hash,
		KeySize: 4, ValueSize: 8, MaxEntries: 256,
	})
	if err != nil {
		return nil, err
	}
	nhState, err := maps.New(maps.Spec{
		Name: progs.FRRNHStateMap, Type: maps.Hash,
		KeySize: 4, ValueSize: 4, MaxEntries: 256,
	})
	if err != nil {
		return nil, err
	}
	avail := map[string]*maps.Map{progs.FRRLastSeenMap: lastSeen}
	trackProg, err := bpf.LoadProgram(progs.FRRTrackSpec(), core.Seg6LocalHook(), avail, bpf.LoadOptions{JIT: &cfg.JIT})
	if err != nil {
		return nil, fmt.Errorf("frr: loading tracker: %w", err)
	}
	track, err := core.AttachEndBPF(trackProg)
	if err != nil {
		return nil, err
	}
	if err := node.AddRoute(&netsim.Route{
		Prefix:    netip.PrefixFrom(cfg.TrackSID, 128),
		Kind:      netsim.RouteSeg6Local,
		Behaviour: track.Behaviour(),
	}); err != nil {
		return nil, err
	}
	f := &FRR{
		node:     node,
		cfg:      cfg,
		LastSeen: lastSeen,
		NHState:  nhState,
		track:    track,
	}
	node.OnCrash(f.CrashReset)
	return f, nil
}

// AddNeighbor starts monitoring one adjacency: it loads a probe
// program configured for the neighbour and installs the trigger
// route pinned to the protected interface.
func (f *FRR) AddNeighbor(nb Neighbor) error {
	conf, err := maps.New(maps.Spec{
		Name: progs.FRRProbeConfMap, Type: maps.Array,
		KeySize: 4, ValueSize: progs.FRRProbeConfSize, MaxEntries: 1,
	})
	if err != nil {
		return err
	}
	v := make([]byte, progs.FRRProbeConfSize)
	putUint32At(v, 0, nb.ID)
	putAddrAt(v, 8, nb.SID)
	putAddrAt(v, 24, f.cfg.TrackSID)
	if err := conf.Update(bpf.PutUint32(0), v, maps.UpdateAny); err != nil {
		return err
	}
	avail := map[string]*maps.Map{progs.FRRProbeConfMap: conf}
	prog, err := bpf.LoadProgram(progs.FRRProbeSpec(), core.LWTOutHook(), avail, bpf.LoadOptions{JIT: &f.cfg.JIT})
	if err != nil {
		return fmt.Errorf("frr: loading probe program for neighbour %d: %w", nb.ID, err)
	}
	lwt, err := core.AttachLWT(prog)
	if err != nil {
		return err
	}
	if err := f.node.AddRoute(&netsim.Route{
		Prefix:   netip.PrefixFrom(nb.ProbeAddr, 128),
		Kind:     netsim.RouteLWTBPF,
		BPF:      lwt,
		Nexthops: []netsim.Nexthop{{Iface: nb.Iface}},
	}); err != nil {
		return err
	}
	probe, err := packet.BuildPacket(f.node.PrimaryAddress(), nb.ProbeAddr,
		packet.WithUDP(probePort, probePort),
		packet.WithPayload([]byte("frr-probe")))
	if err != nil {
		return err
	}
	f.neighbors = append(f.neighbors, &neighborState{nb: nb, probe: probe})
	return nil
}

// Protect installs the steering program on the protected prefix: a
// route with no pinned nexthops, so the encapsulated packet follows
// its first segment through the FIB — primary SID while the
// neighbour is alive, backup segment list once it is declared down.
func (f *FRR) Protect(p Protection) error {
	if len(p.Backup) < 1 || len(p.Backup) > 2 {
		return fmt.Errorf("frr: backup segment list must have 1 or 2 segments, got %d", len(p.Backup))
	}
	conf, err := maps.New(maps.Spec{
		Name: progs.FRRSteerConfMap, Type: maps.Array,
		KeySize: 4, ValueSize: progs.FRRSteerConfSize, MaxEntries: 1,
	})
	if err != nil {
		return err
	}
	v := make([]byte, progs.FRRSteerConfSize)
	putUint32At(v, 0, p.NeighborID)
	putUint32At(v, 4, uint32(len(p.Backup)))
	putAddrAt(v, 8, p.PrimarySID)
	// Wire order: segments[0] is the LAST travel hop.
	putAddrAt(v, 24, p.Backup[len(p.Backup)-1])
	if len(p.Backup) == 2 {
		putAddrAt(v, 40, p.Backup[0])
	}
	if err := conf.Update(bpf.PutUint32(0), v, maps.UpdateAny); err != nil {
		return err
	}
	avail := map[string]*maps.Map{
		progs.FRRSteerConfMap: conf,
		progs.FRRNHStateMap:   f.NHState,
	}
	prog, err := bpf.LoadProgram(progs.FRRSteerSpec(), core.LWTOutHook(), avail, bpf.LoadOptions{JIT: &f.cfg.JIT})
	if err != nil {
		return fmt.Errorf("frr: loading steer program for %v: %w", p.Prefix, err)
	}
	lwt, err := core.AttachLWT(prog)
	if err != nil {
		return err
	}
	return f.node.AddRoute(&netsim.Route{
		Prefix: p.Prefix,
		Kind:   netsim.RouteLWTBPF,
		BPF:    lwt,
	})
}

// Start seeds the detector (every neighbour assumed up, as a BFD
// session starts) and begins the probe/check loop. A stopped
// instance can be started again.
func (f *FRR) Start() {
	f.stopped = false
	now := f.node.Now()
	for _, st := range f.neighbors {
		st.missed = 0
		st.down = false
		st.lastSend = now
		_ = f.NHState.Update(bpf.PutUint32(st.nb.ID), bpf.PutUint32(0), maps.UpdateAny)
		_ = f.LastSeen.Update(bpf.PutUint32(st.nb.ID), bpf.PutUint64(uint64(now)), maps.UpdateAny)
	}
	f.tick()
}

// Stop halts the control loop (the steering state keeps its last
// value).
func (f *FRR) Stop() { f.stopped = true }

// CrashReset runs when the node crashes (Node.OnCrash): a crash wipes
// the daemon's runtime state — detection maps, miss counters and
// damping penalties come back empty, every neighbour assumed up, as a
// freshly exec'd daemon would — while configuration (neighbours,
// protections, probe/steer programs) survives with the node's FIB.
// The transition log and ProbesSent belong to the observer, not the
// daemon, and are preserved.
func (f *FRR) CrashReset() {
	now := f.node.Now()
	for _, st := range f.neighbors {
		st.missed = 0
		st.down = false
		st.lastSend = now
		st.holdNs = 0
		st.holdUntil = 0
		st.goodStreak = 0
		st.lastDownAt = 0
		_ = f.NHState.Update(bpf.PutUint32(st.nb.ID), bpf.PutUint32(0), maps.UpdateAny)
		_ = f.LastSeen.Update(bpf.PutUint32(st.nb.ID), bpf.PutUint64(uint64(now)), maps.UpdateAny)
	}
}

// tick runs once per probe interval: first judge the previous round's
// probes, then send the next round.
func (f *FRR) tick() {
	if f.stopped {
		return
	}
	now := f.node.Now()
	for _, st := range f.neighbors {
		f.check(st, now)
		f.node.Output(st.probe)
		f.ProbesSent++
		st.lastSend = now
	}
	f.node.After(f.cfg.ProbeInterval, f.tick)
}

// check compares the tracker map against the previous probe send
// time: a reply newer than the last send clears the miss counter and
// (if needed) re-converges; silence increments it and declares the
// neighbour down at K.
func (f *FRR) check(st *neighborState, now int64) {
	if now == st.lastSend {
		return // first tick: nothing has been probed yet
	}
	lastSeen, err := f.LastSeen.LookupUint64(bpf.PutUint32(st.nb.ID))
	if err == nil && int64(lastSeen) >= st.lastSend {
		st.missed = 0
		if st.down {
			if f.cfg.Damping {
				// Hysteresis plus hold-down: one healthy round is not
				// trust. The neighbour stays on backup until the hold
				// expires AND DampingGoodRounds rounds passed cleanly.
				st.goodStreak++
				if st.goodStreak < f.cfg.DampingGoodRounds || now < st.holdUntil {
					return
				}
			}
			st.down = false
			st.goodStreak = 0
			_ = f.NHState.Update(bpf.PutUint32(st.nb.ID), bpf.PutUint32(0), maps.UpdateAny)
			f.transition(Transition{NeighborID: st.nb.ID, Up: true, At: now})
		}
		return
	}
	st.missed++
	st.goodStreak = 0
	if !st.down && st.missed >= f.cfg.Misses {
		st.down = true
		if f.cfg.Damping {
			f.escalateHold(st, now)
		}
		_ = f.NHState.Update(bpf.PutUint32(st.nb.ID), bpf.PutUint32(1), maps.UpdateAny)
		f.transition(Transition{NeighborID: st.nb.ID, Up: false, At: now})
	}
}

// escalateHold charges the flap-damping penalty at a down transition:
// the hold doubles per flap (exponential backoff, capped), and a
// neighbour that stayed up for at least 2 × DampingMaxHold since its
// previous down transition starts over at the minimum hold.
func (f *FRR) escalateHold(st *neighborState, now int64) {
	if st.lastDownAt != 0 && now-st.lastDownAt >= 2*f.cfg.DampingMaxHold {
		st.holdNs = 0
	}
	st.lastDownAt = now
	if st.holdNs == 0 {
		st.holdNs = f.cfg.DampingMinHold
	} else {
		st.holdNs *= 2
		if st.holdNs > f.cfg.DampingMaxHold {
			st.holdNs = f.cfg.DampingMaxHold
		}
	}
	st.holdUntil = now + st.holdNs
}

func (f *FRR) transition(tr Transition) {
	f.Transitions = append(f.Transitions, tr)
	if f.OnTransition != nil {
		f.OnTransition(tr)
	}
}

// Down reports the detector's current view of a neighbour.
func (f *FRR) Down(id uint32) bool {
	for _, st := range f.neighbors {
		if st.nb.ID == id {
			return st.down
		}
	}
	return false
}

func putUint32At(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

func putAddrAt(b []byte, off int, a netip.Addr) {
	raw := a.As16()
	copy(b[off:off+16], raw[:])
}
