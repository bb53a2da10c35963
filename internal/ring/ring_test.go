package ring

import (
	"fmt"
	"testing"
)

// testKeys builds K deterministic keys shaped like function names.
func testKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("fn-%04d", i)
	}
	return keys
}

func owners(r *Ring, keys []string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		m, ok := r.Owner(k)
		if !ok {
			panic("owner on empty ring")
		}
		out[k] = m
	}
	return out
}

// counts tallies how many of keys each member owns: the balance view the
// property tests bound.
func counts(r *Ring, keys []string) map[string]int {
	out := make(map[string]int)
	for _, k := range keys {
		if m, ok := r.Owner(k); ok {
			out[m]++
		}
	}
	return out
}

// TestOwnershipDeterministicAcrossRuns: two rings built independently — in
// different insertion orders — from the same (seed, vnodes, member set) must
// agree on every key's owner, for every vnode count in the table. This is
// the property the multi-gateway control plane rests on: each gateway builds
// its own ring and they all route identically.
func TestOwnershipDeterministicAcrossRuns(t *testing.T) {
	keys := testKeys(2000)
	members := []string{"gw-0", "gw-1", "gw-2", "gw-3", "gw-4"}
	for _, vnodes := range []int{1, 16, 64, 128, 256} {
		t.Run(fmt.Sprintf("vnodes=%d", vnodes), func(t *testing.T) {
			a := New(7, vnodes)
			for _, m := range members {
				a.Add(m)
			}
			b := New(7, vnodes)
			for i := range members {
				b.Add(members[len(members)-1-i]) // reverse insertion order
			}
			oa, ob := owners(a, keys), owners(b, keys)
			for _, k := range keys {
				if oa[k] != ob[k] {
					t.Fatalf("key %s: owner %s vs %s across builds", k, oa[k], ob[k])
				}
			}
		})
	}
}

// TestSeedShufflesOwnership: different seeds must produce different
// ownership maps (the seed is part of the hash, not decoration).
func TestSeedShufflesOwnership(t *testing.T) {
	keys := testKeys(500)
	build := func(seed int64) map[string]string {
		r := New(seed, 64)
		for i := 0; i < 4; i++ {
			r.Add(fmt.Sprintf("gw-%d", i))
		}
		return owners(r, keys)
	}
	a, b := build(1), build(2)
	same := 0
	for _, k := range keys {
		if a[k] == b[k] {
			same++
		}
	}
	if same == len(keys) {
		t.Error("seeds 1 and 2 produced identical ownership; the seed is not mixed into the hash")
	}
}

// TestJoinMovesBoundedKeysOnlyToJoiner: adding the (N+1)th member must (a)
// move keys only onto the joiner — no key changes owner between two
// preexisting members — and (b) move at most ceil(K/(N+1)) + eps keys, where
// eps is the consistent-hashing variance allowance (half the fair share at
// the table's vnode counts). Table over vnode counts and member counts.
func TestJoinMovesBoundedKeysOnlyToJoiner(t *testing.T) {
	keys := testKeys(10000)
	k := len(keys)
	for _, vnodes := range []int{64, 128, 256} {
		for n := 1; n <= 7; n++ { // n preexisting members, then one join
			t.Run(fmt.Sprintf("vnodes=%d/members=%d", vnodes, n), func(t *testing.T) {
				r := New(3, vnodes)
				for i := 0; i < n; i++ {
					r.Add(fmt.Sprintf("gw-%d", i))
				}
				before := owners(r, keys)
				joiner := fmt.Sprintf("gw-%d", n)
				r.Add(joiner)
				after := owners(r, keys)

				moved := 0
				for _, key := range keys {
					if before[key] == after[key] {
						continue
					}
					moved++
					if after[key] != joiner {
						t.Fatalf("key %s moved %s→%s, not to the joiner %s",
							key, before[key], after[key], joiner)
					}
				}
				fair := (k + n) / (n + 1) // ceil(K/(N+1))
				eps := fair / 2
				if moved > fair+eps {
					t.Errorf("join moved %d keys, want <= ceil(%d/%d)+eps = %d",
						moved, k, n+1, fair+eps)
				}
				if moved == 0 {
					t.Error("join moved no keys; the joiner owns nothing")
				}
			})
		}
	}
}

// TestBalanceWithinTolerance: at DefaultVNodes, an 8-member ring spreads 10k
// keys so no member owns more than twice the fair share, so no proxy
// member serves far more functions than its peers.
func TestBalanceWithinTolerance(t *testing.T) {
	keys := testKeys(10000)
	r := New(1, 0) // 0 → DefaultVNodes
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("gw-%d", i))
	}
	owned := counts(r, keys)
	fair := len(keys) / 8
	for m, c := range owned {
		if c > 2*fair {
			t.Errorf("member %s owns %d of %d keys (fair share %d)", m, c, len(keys), fair)
		}
		if c == 0 {
			t.Errorf("member %s owns nothing", m)
		}
	}
}

// TestEmptyAndIdempotent: Owner on an empty ring reports !ok, and a double
// Add is a no-op.
func TestEmptyAndIdempotent(t *testing.T) {
	r := New(1, 8)
	if _, ok := r.Owner("x"); ok {
		t.Error("empty ring claimed an owner")
	}
	r.Add("a")
	r.Add("a")
	if got := len(r.points); got != 8 {
		t.Errorf("double Add left %d points, want 8", got)
	}
}
