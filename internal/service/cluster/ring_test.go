package cluster

import (
	"fmt"
	"testing"
)

// keys generates n distinct lookup keys shaped like the real affinity
// keys (hex content hashes are just strings to the ring).
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}

// owners maps each key to the head of its Sequence: the member the
// router tries first while every member is healthy.
func owners(r *Ring, ks []string) map[string]string {
	out := make(map[string]string, len(ks))
	for _, k := range ks {
		seq := r.Sequence(k)
		if len(seq) == 0 {
			panic("no owner for " + k)
		}
		out[k] = seq[0]
	}
	return out
}

// TestRingRebalanceAdd pins the consistent-hashing contract: adding
// one member to N moves only the keys that now hash to it — roughly
// K/(N+1), and never more than twice that — and every moved key moves
// TO the new member, so no pair of old members reshuffles between
// themselves.
func TestRingRebalanceAdd(t *testing.T) {
	const n, k = 8, 10000
	r := NewRing(128)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("worker-%d", i))
	}
	ks := keys(k)
	before := owners(r, ks)

	r.Add("worker-new")
	after := owners(r, ks)

	moved := 0
	for _, key := range ks {
		if before[key] != after[key] {
			moved++
			if after[key] != "worker-new" {
				t.Fatalf("key %q moved %s -> %s: moved keys must move to the added member",
					key, before[key], after[key])
			}
		}
	}
	expect := k / (n + 1)
	if moved > 2*expect {
		t.Fatalf("adding 1 of %d members moved %d/%d keys; want <= ~K/N = %d (2x slack)",
			n+1, moved, k, expect)
	}
	if moved == 0 {
		t.Fatal("adding a member moved zero keys; ring is not spreading load")
	}
}

// TestRingSkipsUnhealthy: Sequence lists every member once, and
// filtering it the way Router.plan does — dropping a draining or dead
// member — leaves the ring successor first, and the rest of the chain
// in order, so a drained owner's keys fall to its successor and only
// to it.
func TestRingSkipsUnhealthy(t *testing.T) {
	r := NewRing(128)
	members := []string{"a:1", "b:2", "c:3"}
	for _, m := range members {
		r.Add(m)
	}
	for _, key := range keys(500) {
		seq := r.Sequence(key)
		if len(seq) != len(members) {
			t.Fatalf("Sequence(%q) = %v; want all %d members", key, seq, len(members))
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("Sequence(%q) = %v lists %q twice", key, seq, m)
			}
			seen[m] = true
		}
		dead := seq[0] // the owner drains
		var healthy []string
		for _, m := range seq {
			if m != dead {
				healthy = append(healthy, m)
			}
		}
		if len(healthy) != 2 || healthy[0] != seq[1] || healthy[1] != seq[2] {
			t.Fatalf("Sequence(%q) = %v without %q gives %v; want the successor chain %v",
				key, seq, dead, healthy, seq[1:])
		}
	}
}

// TestRingDistribution: virtual-node replication keeps per-member load
// near K/N (within 2x either way at 128 replicas).
func TestRingDistribution(t *testing.T) {
	const n, k = 8, 20000
	r := NewRing(128)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("worker-%d", i))
	}
	counts := make(map[string]int)
	for _, m := range owners(r, keys(k)) {
		counts[m]++
	}
	mean := k / n
	for m, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("member %s owns %d keys; want within [%d, %d] of mean %d",
				m, c, mean/2, mean*2, mean)
		}
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d members own keys", len(counts), n)
	}
}

// TestRingIdempotentMembership: a double add is a no-op, and an empty
// ring has no sequence.
func TestRingIdempotentMembership(t *testing.T) {
	r := NewRing(32)
	if seq := r.Sequence("k"); seq != nil {
		t.Fatalf("empty ring Sequence = %v; want nil", seq)
	}
	r.Add("a")
	r.Add("a")
	if r.Len() != 1 || r.VNodes() != 32 {
		t.Fatalf("double Add: %d members, %d vnodes; want 1, 32", r.Len(), r.VNodes())
	}
	if seq := r.Sequence("k"); len(seq) != 1 || seq[0] != "a" {
		t.Fatalf("one-member Sequence = %v; want [a]", seq)
	}
}
