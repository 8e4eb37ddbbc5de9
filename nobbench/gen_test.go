package main

import (
	"reflect"
	"testing"
)

func testConfig(t *testing.T) *config {
	t.Helper()
	c, err := loadConfig("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The same seed yields the same requests; another seed does not.
func TestGeneratorsReproducibleFromSeed(t *testing.T) {
	c := testConfig(t)
	cold := func(seed uint64) [][]request {
		rng := newRNG(seed, 1)
		return [][]request{c.coldPass(rng), c.coldPass(rng)}
	}
	churn := func(seed uint64, client int) []request {
		g := c.churnGen(seed, client)
		out := make([]request, 200)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if !reflect.DeepEqual(cold(7), cold(7)) || reflect.DeepEqual(cold(7), cold(8)) {
		t.Error("cold-sweep passes are not a function of the seed")
	}
	if !reflect.DeepEqual(churn(7, 0), churn(7, 0)) || reflect.DeepEqual(churn(7, 0), churn(8, 0)) || reflect.DeepEqual(churn(7, 0), churn(7, 1)) {
		t.Error("churn streams are not a function of (seed, client)")
	}
	warm := func(seed uint64, client int) []request {
		next := (&run{cfg: c, seed: seed}).warmStream(client)
		out := make([]request, 100)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	if !reflect.DeepEqual(warm(7, 0), warm(7, 0)) || reflect.DeepEqual(warm(7, 0), warm(8, 0)) || reflect.DeepEqual(warm(7, 0), warm(7, 1)) {
		t.Error("warm streams are not a function of (seed, client)")
	}
	// Every cold pass walks each pair as trace, dbsp and cache.
	if got, want := len(cold(3)[0]), 3*len(c.ColdSweep.Pairs)+len(c.ColdSweep.Network); got != want {
		t.Errorf("cold pass has %d requests, want %d", got, want)
	}
}

// The golden set must cover every request the generators can make.
func TestKeySpaceCoversGenerators(t *testing.T) {
	c := testConfig(t)
	keys := map[string]bool{}
	for _, r := range c.keySpace() {
		keys[r.key()] = true
	}
	rng := newRNG(11, 1)
	var reqs []request
	for range 20 {
		reqs = append(reqs, c.coldPass(rng)...)
	}
	g := c.churnGen(11, 0)
	for range 2000 {
		reqs = append(reqs, g.next())
	}
	reqs = append(reqs, c.Warm.Keys...)
	for _, r := range reqs {
		if !keys[r.key()] {
			t.Fatalf("generated request %s is outside the key space", r.key())
		}
	}
}
