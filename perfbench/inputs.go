package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"repro/ftdse"
)

// mix derives an independent generator seed from the run's seed and a
// stream position (splitmix64 finalizer), so neighbouring run seeds do
// not produce overlapping inputs.
func mix(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// input is one generated application.
type input struct {
	name    string
	problem ftdse.Problem
	doc     []byte // the ftdse.WriteProblem document, once encode ran
}

func newInput(spec ftdse.GenSpec, fm ftdse.FaultModel) input {
	p := ftdse.GenerateProblem(spec, fm)
	return input{name: fmt.Sprintf("%s-k%d", p.Name(), fm.K), problem: p}
}

// encode sets doc to the problem document, as a client submits it.
func (in *input) encode() error {
	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, in.problem); err != nil {
		return fmt.Errorf("encoding %s: %w", in.name, err)
	}
	in.doc = doc.Bytes()
	return nil
}

// dim is one of the paper's Table 1a problem dimensions.
type dim struct{ procs, nodes, k int }

var (
	shapes = []ftdse.GraphShape{ftdse.ShapeRandom, ftdse.ShapeTree, ftdse.ShapeChains}
	dists  = []ftdse.WCETDist{ftdse.DistUniform, ftdse.DistExponential}
)

// dseInputs generates n distinct applications with µ = 5 ms. Input i
// has dimension pattern[i%len(pattern)], so every prefix of the list
// mixes sizes as the whole list does; each dimension cycles through the
// graph shapes and WCET distributions.
func dseInputs(seed int64, pattern []dim, n int) []input {
	out := make([]input, 0, n)
	seen := make(map[dim]int)
	for i := 0; i < n; i++ {
		d := pattern[i%len(pattern)]
		j := seen[d]
		seen[d]++
		spec := ftdse.GenSpec{
			Procs:    d.procs,
			Nodes:    d.nodes,
			Shape:    shapes[j%len(shapes)],
			WCETDist: dists[j/len(shapes)%len(dists)],
			Seed:     mix(seed, d.procs, j),
		}
		out = append(out, newInput(spec, ftdse.FaultModel{K: d.k, Mu: ftdse.Ms(5)}))
	}
	return out
}

// serveTraffic is the serve workloads' seeded traffic: a hot set that
// fits the service's result cache, fresh problems, and the operation
// sequence the callers pull from.
type serveTraffic struct {
	problems []input // hot set first, then the fresh problems
	hot      int     // problems[:hot] is the hot set
	seq      []int   // operation i submits problems[seq[i%len(seq)]]
}

// Traffic shape of the serve workloads: the sequence is made of blocks
// of blockOps operations, blockFresh of them fresh and the rest hot. In
// one block in pairOdds the fresh slots are adjacent and submit the same
// problem, a pair the two callers can coalesce on.
const (
	blockOps   = 8
	blockFresh = 2
	pairOdds   = 4
)

type trafficSize struct{ hot, ops int }

func trafficSizes(size sizeClass) trafficSize {
	if size == tinySize {
		return trafficSize{hot: 4, ops: 64}
	}
	// 32 hot problems fit the default 128-entry cache with room for the
	// fresh ones in between. 4096 operations cover a run at the nominal
	// rate of the cluster workload; the serve workload wraps around, and
	// by then the cache has long evicted the first fresh problems, so
	// they are solved again and the traffic mix stays the same.
	return trafficSize{hot: 32, ops: 4096}
}

// newServeTraffic generates the traffic of a seed: 10–20-process
// applications on two or three nodes with k = 2. Sizes, node counts,
// shapes and WCET distributions cycle instead of being drawn, so every
// seed's hot set and fresh problems have the same size mix. The seed
// places the fresh slots in each block and deals the hot problems from
// a reshuffled deck, so every seed has the same hot share and submits
// each hot problem equally often.
//
// Every problem is encoded here, once. Besides giving the documents the
// side timings parse, this builds each problem's graph index before the
// callers run: model.Graph builds that index lazily and without
// synchronization, so two goroutines encoding the same never-encoded
// problem at once (two callers submitting a pair) crash the process
// with a concurrent map write. README.md, Known defects, has the details.
func newServeTraffic(seed int64, size sizeClass) (*serveTraffic, error) {
	sz := trafficSizes(size)
	rng := rand.New(rand.NewSource(mix(seed, 100, 0)))
	t := &serveTraffic{hot: sz.hot}
	add := func() error {
		i := len(t.problems)
		in := newInput(ftdse.GenSpec{
			Procs:    10 + i%11,
			Nodes:    2 + i/11%2,
			Shape:    shapes[i%len(shapes)],
			WCETDist: dists[i/len(shapes)%len(dists)],
			Seed:     mix(seed, 101, i),
		}, ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})
		if err := in.encode(); err != nil {
			return err
		}
		t.problems = append(t.problems, in)
		return nil
	}
	for i := 0; i < sz.hot; i++ {
		if err := add(); err != nil {
			return nil, err
		}
	}
	var deck []int
	for len(t.seq) < sz.ops {
		block := make([]int, blockOps)
		for i := range block {
			block[i] = -1
		}
		if rng.Intn(pairOdds) == 0 {
			p := rng.Intn(blockOps - 1)
			if err := add(); err != nil {
				return nil, err
			}
			block[p], block[p+1] = len(t.problems)-1, len(t.problems)-1
		} else {
			slots := rng.Perm(blockOps)[:blockFresh]
			sort.Ints(slots)
			for _, p := range slots {
				if err := add(); err != nil {
					return nil, err
				}
				block[p] = len(t.problems) - 1
			}
		}
		for i := range block {
			if block[i] < 0 {
				if len(deck) == 0 {
					deck = rng.Perm(sz.hot)
				}
				block[i], deck = deck[0], deck[1:]
			}
		}
		t.seq = append(t.seq, block...)
	}
	t.seq = t.seq[:sz.ops]
	return t, nil
}
