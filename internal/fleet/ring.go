// Package fleet shards attack jobs across N worker processes: a
// coordinator routes each job over the workers' existing HTTP/JSON
// surfaces, placing it by consistent hash of the victim design so each
// worker's victim.Cache LRU stays hot, health-checks the workers, holds
// a lease on every outstanding job, and reassigns work whose worker
// dies. Workers are plain `snowbma serve` processes — the fleet layer
// adds no new wire protocol.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per worker on the hash ring.
// More points smooth the key distribution across a small fleet (the
// expected imbalance shrinks with 1/sqrt(vnodes)).
const DefaultVNodes = 64

// Ring is a consistent-hash ring over named workers. Not safe for
// concurrent use; the Coordinator guards it with its own mutex.
type Ring struct {
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash   uint32
	member string
}

// NewRing builds an empty ring with DefaultVNodes points per member.
func NewRing() *Ring {
	return &Ring{members: map[string]bool{}}
}

func hashKey(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// Add inserts a member's virtual points. Adding an existing member is a
// no-op, so the ring's geometry never depends on join repetition.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < DefaultVNodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   hashKey(fmt.Sprintf("%s#%d", member, i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Stable member order on hash collisions keeps assignment
		// independent of insertion order.
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member and its points.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// GetLive returns the first member clockwise from the key whose
// liveness predicate passes (nil = all live). Dead members are walked
// over rather than removed, so a worker bouncing back keeps exactly the
// keys it had — only the keys of the dead are diverted, and only while
// it is dead.
func (r *Ring) GetLive(key string, live func(member string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[string]bool{}
	for n := 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		if live == nil || live(p.member) {
			return p.member
		}
	}
	return ""
}
