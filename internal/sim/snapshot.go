package sim

// KernelSnapshot is a point-in-time capture of the kernel: the clock,
// the sequence and fired counters, and every live registration in both
// tiers. Restore rewinds the kernel to exactly this state in place; a
// snapshot of a just-built kernel rewinds it to clock zero with nothing
// pending, which is how a machine resets.
//
// A snapshot holds the *event pointers of the registrations it
// captured, which is what makes restore exact: components hold their
// timers by value (Timer.Init), so the event identity of, say, a
// core's issue timer is stable for the component's lifetime, and
// re-arming the captured slot re-arms that same timer. The snapshot is
// therefore only meaningful against the kernel (and component graph)
// it was taken from.
type KernelSnapshot struct {
	now   Time
	seq   uint64
	fired uint64
	// slots are the live registrations at capture, in (time, seq) order.
	slots []slot
}

// Snapshot captures the kernel's current state: clock, counters and
// every live registration. It must not be called from inside a running
// event callback.
func (k *Kernel) Snapshot() *KernelSnapshot {
	s := &KernelSnapshot{now: k.now, seq: k.seq, fired: k.fired}
	s.slots = make([]slot, 0, k.liveNear+k.liveFar)
	capture := func(bucket []slot) {
		for i := range bucket {
			if sl := bucket[i]; sl.ev != nil && sl.live() {
				s.slots = append(s.slots, sl)
			}
		}
	}
	capture(k.cur[k.curHead:])
	for b := range k.wheel {
		capture(k.wheel[b])
	}
	capture(k.overflow)
	// Canonical (time, seq) order: the capture walk's bucket layout is
	// an implementation detail; the snapshot's meaning is the ordered
	// event sequence.
	sortSlots(s.slots)
	return s
}

// Restore rewinds the kernel to a prior Snapshot: the clock, sequence
// and fired counters return to their captured values, every
// registration armed since (or cancelled since) is undone in place,
// and exactly the captured registrations are re-armed with their
// original (time, seq) keys — so the remaining event sequence replays
// identically. Every Timer armed since is disarmed in place and stays
// usable. Queue capacity is kept: the drained wheel returns to position
// zero with every bucket's backing staying at its own position, and
// restoring a snapshot with no registrations newer than the current
// queue allocates nothing. Restore must not be called from inside a
// running event callback.
func (k *Kernel) Restore(s *KernelSnapshot) {
	k.drainQueues()
	k.now, k.seq, k.fired = s.now, s.seq, s.fired
	k.deadline = s.now
	k.wheel[k.wheelPos] = k.cur
	k.wheelPos, k.wheelTime = 0, s.now&^(quantum-1)
	k.cur, k.wheel[0] = k.wheel[0], nil
	k.liveNear, k.liveFar = 0, 0
	for _, sl := range s.slots {
		sl.ev.armed = true
		sl.ev.when = sl.when
		sl.ev.seq = sl.seq
		k.insert(sl)
	}
}

// drainQueues disarms every live registration and empties both tiers,
// keeping their allocated capacity.
func (k *Kernel) drainQueues() {
	disarm := func(bucket []slot) {
		for i := range bucket {
			if s := bucket[i]; s.ev != nil && s.live() {
				s.ev.armed = false
			}
		}
	}
	disarm(k.cur[k.curHead:])
	clear(k.cur)
	k.cur = k.cur[:0]
	k.curHead = 0
	for b := range k.wheel {
		disarm(k.wheel[b])
		clear(k.wheel[b])
		k.wheel[b] = k.wheel[b][:0]
	}
	disarm(k.overflow)
	clear(k.overflow)
	k.overflow = k.overflow[:0]
}
