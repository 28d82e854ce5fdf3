// Package cluster is the sharded coordinator tier on top of ftdsed: a
// stdlib-only coordinator (cmd/ftclusterd) that consistent-hashes job
// fingerprints across solver nodes for cache affinity, health-checks
// the nodes, re-maps shards when one dies, steals work from hot shards,
// journals every job to a write-ahead log, and pulls periodic search
// checkpoints from the nodes so an in-flight solve killed with its node
// resumes on a survivor from the last incumbent instead of restarting. DESIGN.md §13
// documents the architecture.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring with virtual nodes. Placement depends
// only on the member names and the vnode count, never on insertion
// order, so every coordinator (and every restart) computes the same
// shard map. A job key's owner is the first member clockwise of the
// key's hash; failover order is the continued clockwise walk, which is
// what makes re-mapping automatic — when the owner is dead, the next
// member in Order takes the shard, and only keys owned by the dead
// member move.
type ring struct {
	vnodes  []vnode
	members []string // distinct, sorted
}

type vnode struct {
	hash uint64
	name string
}

// vnodesPer balances shard evenness against lookup cost; at 128
// vnodes per member the heaviest member of a small cluster stays within
// a few percent of fair share.
const vnodesPer = 128

// newRing builds a ring of the given members (duplicates are an error;
// order is immaterial).
func newRing(members []string) (*ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	r := &ring{}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if seen[m] {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
		seen[m] = true
		r.members = append(r.members, m)
		for i := 0; i < vnodesPer; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", m, i)), name: m})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		// Hash ties (vanishingly rare) break by name so placement stays
		// insertion-order independent.
		return r.vnodes[i].name < r.vnodes[j].name
	})
	return r, nil
}

// hash64 is FNV-1a finished with a splitmix64 mix. FNV alone disperses
// short, similar strings ("n1#0", "n1#1", …) poorly, which skews the
// shard shares; the finalizer fixes that. Both steps are fixed
// arithmetic — stable across processes and Go versions, which the shard
// map needs (a restarted coordinator must re-derive the same placement
// that journal records were written under).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// owner returns the member owning key ("" on an empty ring).
func (r *ring) owner(key string) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	return r.vnodes[r.at(key)].name
}

// at returns the index of the first vnode clockwise of key's hash.
func (r *ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return i
}

// order returns every member in the ring's failover order for key: the
// owner first, then each further member in clockwise order. Dispatch
// walks this list skipping dead nodes, which is exactly the automatic
// re-mapping contract — keys of a dead member land on its clockwise
// successor, everything else stays put.
func (r *ring) order(key string) []string {
	if len(r.vnodes) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i, start := 0, r.at(key); i < len(r.vnodes) && len(out) < len(r.members); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !seen[v.name] {
			seen[v.name] = true
			out = append(out, v.name)
		}
	}
	return out
}
