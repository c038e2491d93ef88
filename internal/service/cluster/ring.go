package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent hash ring over worker names. Each member is
// replicated as `replicas` virtual nodes so load spreads evenly, and
// keys are 64-bit truncations of sha256 — the affinity keys fed to it
// are themselves canonical content hashes, so placement is uniform
// and fully deterministic across router restarts.
//
// Membership has the consistent-hashing property the rebalance test
// pins: adding a member moves only the ~K/N keys that now hash to it;
// every other key keeps its owner, so worker caches and machine pools
// stay warm as the fleet grows. Membership is sticky: a draining or
// dead worker stays on the ring, and the router skips it in Sequence
// order, so its keys fall to its ring successor and only to it.
//
// Ring is not goroutine-safe; the Router serializes access.
type Ring struct {
	replicas int
	members  map[string]bool
	vnodes   []vnode // sorted by (hash, member)
}

type vnode struct {
	hash   uint64
	member string
}

// hashString maps a string to its ring position.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// ringReplicas is a router ring's virtual nodes per worker.
const ringReplicas = 128

// NewRing builds an empty ring with the given virtual-node
// replication (<= 0: ringReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = ringReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		r.vnodes = append(r.vnodes, vnode{hashString(member + "#" + strconv.Itoa(i)), member})
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].member < r.vnodes[j].member
	})
}

// Len is the member count.
func (r *Ring) Len() int { return len(r.members) }

// VNodes is the virtual-node count.
func (r *Ring) VNodes() int { return len(r.vnodes) }

// Sequence returns every member in ring order starting at key's
// position: the owner first, then each distinct successor. It is the
// complete failover chain for key.
func (r *Ring) Sequence(key string) []string {
	if len(r.vnodes) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	seen := make(map[string]bool, len(r.members))
	out := make([]string, 0, len(r.members))
	for i := 0; i < len(r.vnodes) && len(out) < len(r.members); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !seen[v.member] {
			seen[v.member] = true
			out = append(out, v.member)
		}
	}
	return out
}
