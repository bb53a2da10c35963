// Package ring is a consistent-hash ring with virtual nodes for the
// multi-gateway proxy: functions map to owning gateway members by ring
// position, so N cooperating gateways partition ownership without any
// coordination beyond agreeing on the member set, the seed, and the
// virtual-node count.
//
// Everything is deterministic and seedable: hashing is FNV-1a mixed with the
// seed, ties break on member name, and ownership is a pure function of
// (seed, vnodes, member set, key) — two rings built in any insertion order
// from the same inputs answer Owner identically, byte for byte. A join
// moves the minimum of keys: it steals keys only for the joiner.
package ring

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count used when a caller passes 0: high
// enough that an 8-member ring balances ownership to within a few percent.
const DefaultVNodes = 128

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member string
}

// Ring maps keys to members by consistent hashing. It is not safe for
// concurrent mutation: callers add every member before sharing the ring,
// after which Owner is safe to call concurrently.
type Ring struct {
	seed   int64
	vnodes int
	// points is sorted ascending by (hash, member); Owner binary-searches it.
	points  []point
	members map[string]bool
}

// New returns an empty ring. vnodes <= 0 takes DefaultVNodes.
func New(seed int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes, members: make(map[string]bool)}
}

// fnv1a is FNV-1a 64 over s, seeded so distinct ring seeds shuffle ownership.
func (r *Ring) fnv1a(s string) uint64 {
	h := uint64(14695981039346656037) ^ uint64(r.seed)*0x9e3779b97f4a7c15
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	// Final avalanche (splitmix64 tail) so short keys spread over the ring.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Seed returns the ring's hash seed.
func (r *Ring) Seed() int64 { return r.seed }

// Add places a member's virtual nodes on the ring. Adding a present member is
// a no-op, so Add is idempotent.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{
			hash:   r.fnv1a(fmt.Sprintf("%s#%d", member, v)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Owner returns the member owning key: the first virtual node clockwise from
// the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := r.fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the ring
	}
	return r.points[i].member, true
}
