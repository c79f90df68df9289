package noc

import (
	"fmt"

	"learn2scale/internal/timeline"
)

// Session runs message bursts ("groups") on one simulated clock,
// letting them overlap in the network — the substrate of the pipelined
// CMP scheduler (internal/cmp.RunPipeline), where one stage's transfer
// burst drains while another stage's next burst is already in flight.
// It is the simulator's only drive loop: RunBurst is a one-group
// session.
//
// Each group gets its own packet-id space (ids restart at 0), fault
// salt, timeline section (event stamps relative to the group's inject
// cycle) and Result, all passed explicitly to Inject, so a session
// whose groups happen to run strictly one after another is
// bit-identical — results, obs metrics, timeline events — to the same
// groups each run alone in a fresh session. Two mechanisms carry that
// equivalence:
//
//   - Idle renormalization: when a new group is injected into a
//     completely quiescent network (no flit buffered, every NI queue
//     consumed), the round-robin arbitration pointers reset and the
//     consumed queue tails are dropped, leaving state indistinguishable
//     from a freshly reset simulator. Renormalization never fires while
//     anything is in flight, so overlapping groups keep exact shared-
//     resource contention.
//   - Unique VC ownership: groups reuse packet ids, so virtual-channel
//     buffers are claimed by a simulator-unique uid instead of the id.
//
// A Session is single-threaded. The next Begin or RunBurst on its
// simulator invalidates it: Inject and Next on a stale session error.
type Session struct {
	sim *Simulator
	gen uint64
	now int64
	// mark is the clock when the session began or Next last returned
	// a group: the MaxCycles guard measures from it.
	mark int64
}

// Begin resets the simulator and starts a session, invalidating any
// earlier one.
func (s *Simulator) Begin() *Session {
	s.reset()
	s.gen++
	return &Session{sim: s, gen: s.gen}
}

// RunBurst injects all messages at their Time stamps (0 for a layer-
// transition burst) and simulates until the network drains, returning
// aggregate statistics: a one-group session under fault salt 0. When
// cfg.Timeline is set the burst records into its own auto-registered
// "burstNNN" section. Zero-byte and self-addressed messages carry no
// traffic and are skipped.
func (s *Simulator) RunBurst(msgs []Message) (Result, error) {
	ss := s.Begin()
	var sec *timeline.Section
	if s.cfg.Timeline != nil {
		sec = s.cfg.Timeline.Section(fmt.Sprintf("burst%03d", s.tlAuto))
		s.tlAuto++
	}
	g, err := ss.Inject(msgs, 0, 0, sec)
	if err != nil {
		return Result{}, err
	}
	if _, _, err := ss.Next(); err != nil {
		return Result{}, err
	}
	return ss.Result(g), nil
}

// Now returns the session clock: every cycle before it has been fully
// simulated. Next advances it; Inject never does.
func (ss *Session) Now() int64 { return ss.now }

// stale reports an error when a later Begin invalidated the session.
func (ss *Session) stale() error {
	if ss.gen != ss.sim.gen {
		return fmt.Errorf("noc: stale session (a later Begin or RunBurst reset the simulator)")
	}
	return nil
}

// Inject schedules one burst group: msgs enter their source NI queues
// at absolute cycle at (plus each message's own Time offset), faulted
// under salt, traced into sec (nil = untraced; stamps are relative to
// at). Returns the group id. A group whose messages carry no traffic —
// empty, filtered, or all lost to disconnected endpoints — resolves
// immediately at cycle at.
func (ss *Session) Inject(msgs []Message, at, salt int64, sec *timeline.Section) (int, error) {
	if err := ss.stale(); err != nil {
		return 0, err
	}
	if at < ss.now {
		return 0, fmt.Errorf("noc: session inject at cycle %d, clock already at %d", at, ss.now)
	}
	s := ss.sim
	s.maybeRenormalize()
	need, err := s.countPackets(msgs)
	if err != nil {
		return 0, err
	}
	gi := int32(len(s.groups))
	if int(gi) < cap(s.groups) {
		s.groups = s.groups[:gi+1]
	} else {
		s.groups = append(s.groups, groupState{})
	}
	// Reuse the slot's link scratch from an earlier session. Each live
	// group owns its arena, a spare one when it fits: the injection
	// queues hold pointers into it, and queues of concurrent groups
	// outlive any shared scratch.
	g := &s.groups[gi]
	*g = groupState{sec: sec, base: at, salt: salt,
		arena: s.takeArena(need), links: g.links, lost: g.lost[:0]}
	if sec != nil {
		if n := s.linkScratchSize(); len(g.links) != n {
			g.links = make([]tlInterval, n)
		} else {
			clear(g.links)
		}
	}
	s.buildGroup(gi, msgs, at)
	if g.res.Packets == 0 {
		s.resolveGroup(gi, at)
		return int(gi), nil
	}
	s.live++
	// Re-sort the unconsumed queue tails so the new entries merge by
	// (time, id). A head packet that is mid-injection (injSeq > 0) is
	// pinned: its time is in the past, but a same-cycle tie against a
	// fresh group's id 0 could otherwise displace it.
	for p := range s.planes {
		pl := &s.planes[p]
		for n := range pl.nodeQueue {
			from := pl.nodeHead[n]
			if pl.injSeq[n] > 0 {
				from++
			}
			if tail := pl.nodeQueue[n][from:]; len(tail) > 1 {
				sortInjQueue(tail)
			}
		}
	}
	return int(gi), nil
}

// Next advances the simulation until some group fully resolves (every
// packet delivered or terminally lost) and returns its id and the
// absolute cycle it resolved at. Groups that resolved while an earlier
// Next was stepping are reported first, in resolution order. It is an
// error to call Next with no unresolved groups outstanding, or for no
// group to resolve within the config's MaxCycles cycles of the session
// start or the previous Next — for a one-group session (RunBurst), a
// clock past MaxCycles.
func (ss *Session) Next() (group int, end int64, err error) {
	if err := ss.stale(); err != nil {
		return 0, 0, err
	}
	s := ss.sim
	for len(s.resolved) == 0 {
		if s.live == 0 {
			return 0, 0, fmt.Errorf("noc: session has no unresolved groups")
		}
		if ss.now-ss.mark > s.cfg.MaxCycles {
			return 0, 0, fmt.Errorf("noc: session did not resolve a group within %d cycles", s.cfg.MaxCycles)
		}
		s.loopIters++
		for p := range s.planes {
			s.stepPlane(&s.planes[p], p, ss.now)
		}
		ss.now++
		// Idle-cycle fast-forward: when no flit is buffered anywhere and
		// no node may inject yet, every skipped cycle is a no-op
		// (stepPlane touches nothing), so jump straight to the next
		// injection time. The cap keeps the MaxCycles overrun check
		// firing exactly as the dense loop would.
		if !s.noFastForward && len(s.resolved) == 0 {
			if next, ok := s.fastForwardTarget(ss.now); ok {
				if limit := ss.mark + s.cfg.MaxCycles + 1; next > limit {
					next = limit
				}
				ss.now = next
			}
		}
	}
	// Pop by shifting, not reslicing, so the queue keeps its capacity
	// across sessions.
	gi := s.resolved[0]
	s.resolved = s.resolved[:copy(s.resolved, s.resolved[1:])]
	ss.mark = ss.now
	// A zero-traffic group's endCycle (its inject cycle) may lie ahead
	// of the session clock; the clock stays put — those cycles still
	// need simulating for the groups that do carry traffic.
	return int(gi), s.groups[gi].endCycle, nil
}

// Result returns the resolved group's statistics. Cycles is the
// group's own drain time (end − inject cycle). Calling it on an
// unresolved group returns the partial counts accumulated so far.
func (ss *Session) Result(group int) Result {
	return ss.sim.groups[group].res
}

// Lost returns the deduplicated, sorted (Src, Dst) transfers of the
// group that the network failed to deliver.
func (ss *Session) Lost(group int) []LostTransfer {
	return dedupLost(ss.sim.groups[group].lost)
}

// maybeRenormalize resets arbitration state when the network is
// completely quiescent: no flit buffered on any plane and every NI
// queue fully consumed. Credits, VC ownership and injection state are
// already back at their initial values by the flow-control invariants
// (every buffered flit was popped, returning its credit; tails release
// VC ownership), so after the reset the simulator is indistinguishable
// from a freshly constructed one — the property that makes strictly
// sequential session groups bit-identical to groups run alone.
// It never fires mid-flight, so overlapping groups are untouched.
func (s *Simulator) maybeRenormalize() {
	for p := range s.planes {
		pl := &s.planes[p]
		if pl.buffered != 0 {
			return
		}
		for n, q := range pl.nodeQueue {
			if pl.nodeHead[n] < len(q) {
				return
			}
		}
	}
	for p := range s.planes {
		pl := &s.planes[p]
		for i := range pl.routers {
			r := &pl.routers[i]
			for prt := 0; prt < numPorts; prt++ {
				r.rrPtr[prt] = 0
			}
			pl.nodeQueue[i] = pl.nodeQueue[i][:0]
			pl.nodeHead[i] = 0
		}
	}
}
