package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Every request sequence comes from the workload seed through PCG
// streams, so the same seed reproduces the same inputs on any machine
// and Go release (math/rand/v2's PCG output is specified).

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func (c *config) grid(rng *rand.Rand) []machine {
	return c.MachineGrids[rng.IntN(len(c.MachineGrids))]
}

// coldPass is one cold-sweep walk: every configured pair as trace, dbsp
// and cache (in that order, so dbsp reuses the trace and cache records a
// second run), in a seeded pair order with seeded machine grids, and one
// seeded-seed network request per network shape at a seeded position.
func (c *config) coldPass(rng *rand.Rand) []request {
	cs := c.ColdSweep
	var groups [][]request
	for _, i := range rng.Perm(len(cs.Pairs)) {
		p := cs.Pairs[i]
		groups = append(groups, []request{
			{Kind: "trace", Algorithm: p.Algorithm, N: p.N, Machines: c.grid(rng)},
			{Kind: "dbsp", Algorithm: p.Algorithm, N: p.N, Machines: c.grid(rng)},
			{Kind: "cache", Algorithm: p.Algorithm, N: p.N},
		})
	}
	for _, ns := range cs.Network {
		at := rng.IntN(len(groups) + 1)
		net := []request{ns.request(1 + rng.Int64N(int64(cs.NetworkSeeds)))}
		groups = append(groups[:at], append([][]request{net}, groups[at:]...)...)
	}
	var out []request
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// zipf draws ranks 0..k-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(k int, s float64) zipf {
	cdf := make([]float64, k)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// churnGen yields one churn client's request stream.
type churnGen struct {
	c   *config
	rng *rand.Rand
	z   zipf
}

func (c *config) churnGen(seed uint64, clientID int) *churnGen {
	return &churnGen{c: c, rng: newRNG(seed, uint64(1000+clientID)), z: newZipf(len(c.Churn.Pairs), c.Churn.ZipfS)}
}

func (g *churnGen) next() request {
	ch := g.c.Churn
	p := ch.Pairs[g.z.draw(g.rng)]
	var r request
	switch u := g.rng.Float64(); {
	case u < ch.CacheShare:
		r = request{Kind: "cache", Algorithm: p.Algorithm, N: p.N}
	case u < ch.CacheShare+ch.NetworkShare:
		ns := ch.Network[g.rng.IntN(len(ch.Network))]
		return ns.request(1 + g.rng.Int64N(int64(ch.NetworkSeeds)))
	case g.rng.IntN(2) == 0:
		r = request{Kind: "trace", Algorithm: p.Algorithm, N: p.N, Machines: g.c.grid(g.rng)}
	default:
		r = request{Kind: "dbsp", Algorithm: p.Algorithm, N: p.N, Machines: g.c.grid(g.rng)}
	}
	if g.rng.Float64() < ch.ReplayShare {
		r.Engine = "replay"
	}
	return r
}

// keySpace lists every request the workloads can generate, engine
// aside: the golden set must cover all of them.
func (c *config) keySpace() []request {
	var out []request
	add := func(pairs []pair, nets []netSpec, seeds int) {
		for _, p := range pairs {
			for _, kind := range []string{"trace", "dbsp"} {
				for _, g := range c.MachineGrids {
					out = append(out, request{Kind: kind, Algorithm: p.Algorithm, N: p.N, Machines: g})
				}
			}
			out = append(out, request{Kind: "cache", Algorithm: p.Algorithm, N: p.N})
		}
		for _, ns := range nets {
			for s := 1; s <= seeds; s++ {
				out = append(out, ns.request(int64(s)))
			}
		}
	}
	add(c.ColdSweep.Pairs, c.ColdSweep.Network, c.ColdSweep.NetworkSeeds)
	add(c.Churn.Pairs, c.Churn.Network, c.Churn.NetworkSeeds)
	out = append(out, c.Warm.Keys...)
	seen := map[string]bool{}
	uniq := out[:0]
	for _, r := range out {
		if k := r.key(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, r)
		}
	}
	return uniq
}
