// Package placement maps photo IDs onto the PipeStore fleet with a
// consistent-hash ring, the data-placement primitive behind replicated
// ingest, read repair and zero-loss degraded rounds.
//
// The ring hashes every member onto `vnodes` points of a 64-bit circle;
// a photo lands on the first R distinct members found walking clockwise
// from its own hash. Two properties carry the durability story:
//
//   - Determinism: Replicas(id) depends only on the sorted member list and
//     R, so the tuner, every store and the ingest front end compute the
//     same placement independently — no placement service, no gossip.
//   - Minimal movement: removing a member only reassigns photos that member
//     carried; every other photo keeps its replica set. Retiring a lost
//     store therefore copies exactly the dead store's objects.
//
// Ownership for extraction is a view over the same ring: the owner of a
// photo is its first replica that is currently live, so when a store dies
// mid-round each of its photos falls to the next live replica and the
// round loses nothing (R ≥ 2).
package placement

import (
	"fmt"
	"sort"
)

// vnodesPerMember spreads each member over the circle. 64 points keeps the
// per-member load imbalance in the few-percent range for small fleets
// while the full ring (members × 64 points) stays tiny.
const vnodesPerMember = 64

type point struct {
	hash   uint64
	member int32 // index into members
}

// Ring is an immutable consistent-hash ring over a store fleet.
type Ring struct {
	members []string // sorted, unique
	r       int      // replication factor, capped at len(members)
	points  []point  // sorted by hash
}

// New builds a ring over members with replication factor r. The member
// list is copied, deduplicated and sorted, so callers on different
// machines converge on the same ring regardless of argument order. r is
// clamped to [1, len(members)].
func New(members []string, r int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("placement: empty member list")
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("placement: empty member ID")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	if r < 1 {
		r = 1
	}
	if r > len(uniq) {
		r = len(uniq)
	}
	g := &Ring{members: uniq, r: r}
	g.points = make([]point, 0, len(uniq)*vnodesPerMember)
	for i, m := range uniq {
		h := fnv64(m)
		for v := 0; v < vnodesPerMember; v++ {
			// Derive each vnode point from the member hash with a strong
			// mix, so members' points interleave instead of clustering.
			g.points = append(g.points, point{splitmix64(h + uint64(v)), int32(i)})
		}
	}
	sort.Slice(g.points, func(a, b int) bool {
		if g.points[a].hash != g.points[b].hash {
			return g.points[a].hash < g.points[b].hash
		}
		return g.points[a].member < g.points[b].member
	})
	return g, nil
}

// Members returns the sorted member list (shared slice; do not mutate).
func (g *Ring) Members() []string { return g.members }

// Replication returns the effective replication factor.
func (g *Ring) Replication() int { return g.r }

// Replicas returns the R distinct members holding photo id, in ring walk
// order (the first entry is the photo's primary). The result is freshly
// allocated.
func (g *Ring) Replicas(id uint64) []string {
	reps := make([]string, 0, g.r)
	g.walk(id, func(m string) bool {
		reps = append(reps, m)
		return len(reps) < g.r
	})
	return reps
}

// Owner returns the first replica of id that live reports as alive. When
// every replica is dead it returns ("", false): the photo is unreachable
// this round.
func (g *Ring) Owner(id uint64, live func(string) bool) (string, bool) {
	var owner string
	n := 0
	g.walk(id, func(m string) bool {
		n++
		if owner == "" && live(m) {
			owner = m
		}
		return owner == "" && n < g.r
	})
	return owner, owner != ""
}

// walk visits the distinct members clockwise from id's point until fn
// returns false or all members were seen.
func (g *Ring) walk(id uint64, fn func(string) bool) {
	h := splitmix64(id)
	i := sort.Search(len(g.points), func(k int) bool { return g.points[k].hash >= h })
	seen := make([]bool, len(g.members))
	found := 0
	for k := 0; k < len(g.points) && found < len(g.members); k++ {
		p := g.points[(i+k)%len(g.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		found++
		if !fn(g.members[p.member]) {
			return
		}
	}
}

// LiveSet adapts a member slice into the predicate Owner takes.
func LiveSet(live []string) func(string) bool {
	set := make(map[string]bool, len(live))
	for _, m := range live {
		set[m] = true
	}
	return func(m string) bool { return set[m] }
}

// Without returns the member list minus dead, for building the
// post-rebuild ring. The input is not modified.
func Without(members []string, dead string) []string {
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m != dead {
			out = append(out, m)
		}
	}
	return out
}

// fnv64 is FNV-1a, seeding each member's point sequence from its name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the finalizer of the splitmix64 generator — a cheap,
// well-mixed 64-bit permutation used both to place photo IDs (which are
// sequential integers, far from uniform) and to spread vnode points.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
