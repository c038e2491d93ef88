package bridge

import "swallow/internal/sim"

// Snapshot is a point-in-time capture of a bridge: its ingress queue,
// mid-message progress, pacing deadlines and statistics. Pacing timer
// registrations are kernel state, captured by the kernel's own
// snapshot; Restore here copies only plain bridge state.
//
// Queued payloads are immutable once built (Send copies its input), so
// the capture shares them and copies only the outer slice.
type Snapshot struct {
	sendQ          []outMsg
	inMsg          int
	nextTx, nextRx sim.Time
	bytesIn        uint64
	bytesOut       uint64
}

// Snapshot captures the bridge's current state.
func (b *Bridge) Snapshot() *Snapshot {
	return &Snapshot{
		sendQ:    append([]outMsg(nil), b.sendQ...),
		inMsg:    b.inMsg,
		nextTx:   b.nextTx,
		nextRx:   b.nextRx,
		bytesIn:  b.BytesIn,
		bytesOut: b.BytesOut,
	}
}

// Restore rewinds the bridge to a prior Snapshot, reusing existing
// slice capacity so a warm restore allocates nothing beyond (at most)
// first-time slice growth.
func (b *Bridge) Restore(s *Snapshot) {
	clear(b.sendQ)
	b.sendQ = append(b.sendQ[:0], s.sendQ...)
	b.inMsg = s.inMsg
	b.nextTx, b.nextRx = s.nextTx, s.nextRx
	b.BytesIn, b.BytesOut = s.bytesIn, s.bytesOut
}
