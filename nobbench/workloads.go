package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// run carries one workload run's settings.
type run struct {
	cfg     *config
	nobld   string // daemon binary under test
	scratch string // per-run directory inside the checkout
	seed    uint64
	span    time.Duration // the measured phase (--seconds)
}

// sample is one answered (or failed) request of the measured phase.
type sample struct {
	req     request
	body    []byte   // shared between samples with identical replies
	hash    [32]byte // of body
	err     error
	latency time.Duration // from when the request was due to the end of its reply
	late    time.Duration // from when it was due to when it was sent
	segment int           // cold-sweep pass (a fresh daemon); 0 elsewhere
	window  int           // index into outcome.windows
}

// outcome is what a workload run measured, before verification.
type outcome struct {
	samples []sample
	elapsed time.Duration // wall time of the measured phase
	// windows are the lengths of the slices of the measured phase that
	// metrics are taken over separately and then reduced by median, so
	// a transient stall of the host moves a run's figures less.
	windows []time.Duration
	setupS  []float64 // exec-to-healthy plus warm-up, once per set-up
	rssMB   []float64 // peak resident set of the daemons, once per daemon set
	scrape  map[string]float64
}

// collector gathers samples from concurrent clients.  Identical reply
// bodies are stored once, so a long run of cached answers costs memory
// per distinct answer, not per request.
type collector struct {
	mu      sync.Mutex
	samples []sample
	bodies  map[[32]byte][]byte
}

func (c *collector) add(s sample) {
	if s.body != nil {
		s.hash = sha256.Sum256(s.body)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.body != nil {
		if b, ok := c.bodies[s.hash]; ok {
			s.body = b
		} else {
			if c.bodies == nil {
				c.bodies = map[[32]byte][]byte{}
			}
			c.bodies[s.hash] = s.body
		}
	}
	c.samples = append(c.samples, s)
}

// daemonSet is the processes one set-up starts: a single daemon, or a
// fleet's nodes followed by its router.
type daemonSet []*daemon

func (ds daemonSet) front() *daemon { return ds[len(ds)-1] }

// peakRSSMB sums the daemons' peak resident sets.
func (ds daemonSet) peakRSSMB() float64 {
	total := 0.0
	for _, d := range ds {
		if rss, err := d.peakRSSMB(); err == nil {
			total += rss
		}
	}
	return total
}

func (ds daemonSet) stop() {
	for i := len(ds) - 1; i >= 0; i-- {
		ds[i].stop()
	}
}

// retire records the set's peak resident set and stops it.
func (out *outcome) retire(ds daemonSet) {
	out.rssMB = append(out.rssMB, ds.peakRSSMB())
	ds.stop()
}

// setUp starts a daemon set setups_per_run times (exec to ready, warm-up
// included), recording each set-up time, and keeps the last one: the
// median set-up time and peak memory then rest on several samples.
func (r *run) setUp(out *outcome, start func() (daemonSet, error)) (daemonSet, error) {
	var ds daemonSet
	for i := 0; i < r.cfg.SetupsPerRun; i++ {
		if ds != nil {
			out.retire(ds)
		}
		t0 := time.Now()
		var err error
		if ds, err = start(); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	return ds, nil
}

// startPrewarmed starts one daemon and asks it for every key once.
func (r *run) startPrewarmed(flags []string, dir string, keys []request) (daemonSet, error) {
	d, err := startDaemon(r.nobld, 0, flags, dir)
	if err != nil {
		return nil, err
	}
	if err := prewarm(d.base, keys); err != nil {
		d.stop()
		return nil, err
	}
	return daemonSet{d}, nil
}

// prewarm asks for every key once, in order.
func prewarm(base string, keys []request) error {
	c := newClient(base, 1)
	defer c.close()
	for _, k := range keys {
		if _, err := c.analyze(k); err != nil {
			return fmt.Errorf("prewarm %s: %w", k.key(), err)
		}
	}
	return nil
}

// coldSweep walks the cold key set on fresh daemons, one closed-loop
// client, pass after pass until the measured time and the sample floor
// are both reached.  A pass always completes, so every run measures the
// same mix of keys.
func (r *run) coldSweep() (*outcome, error) {
	out := &outcome{}
	rng := newRNG(r.seed, 1)
	var col collector
	for pass := 0; out.elapsed < r.span || len(col.samples) < r.cfg.MinSamples; pass++ {
		if out.elapsed > 4*r.span {
			return nil, fmt.Errorf("cold-sweep: %d samples after %v, need %d", len(col.samples), out.elapsed, r.cfg.MinSamples)
		}
		t0 := time.Now()
		d, err := startDaemon(r.nobld, 0, r.cfg.daemonFlags("cold-sweep"), "")
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		c := newClient(d.base, 1)
		start := time.Now()
		due := start
		for _, req := range r.cfg.coldPass(rng) {
			sent := time.Now()
			body, err := c.analyze(req)
			done := time.Now()
			col.add(sample{req: req, body: body, err: err, latency: done.Sub(due), late: sent.Sub(due), segment: pass, window: pass})
			due = done
		}
		out.windows = append(out.windows, time.Since(start))
		out.elapsed += time.Since(start)
		out.scrape = scrape(c, "")
		c.close()
		out.retire(daemonSet{d})
	}
	out.samples = col.samples
	return out, nil
}

// churnWarmKeys computes, in set-up, every churn pair's trace and
// recorded run on the block engine and its recorded run (hence its
// compiled schedule) on the replay engine.  The measured phase then
// sees store hits, spills, reloads and warm replays, not a seed-dependent
// handful of first executions.
func (c *config) churnWarmKeys() []request {
	var keys []request
	for _, p := range c.Churn.Pairs {
		keys = append(keys,
			request{Kind: "trace", Algorithm: p.Algorithm, N: p.N},
			request{Kind: "cache", Algorithm: p.Algorithm, N: p.N},
			request{Kind: "cache", Algorithm: p.Algorithm, N: p.N, Engine: "replay"})
	}
	return keys
}

// churn runs Zipf-popular closed-loop clients against one daemon whose
// trace store has a memory budget well below the working set.
func (r *run) churn() (*outcome, error) {
	out := &outcome{}
	spill := filepath.Join(r.scratch, "spill")
	ds, err := r.setUp(out, func() (daemonSet, error) {
		os.RemoveAll(spill)
		flags := append(r.cfg.daemonFlags("churn"), "-trace-spill-dir", spill)
		return r.startPrewarmed(flags, spill, r.cfg.churnWarmKeys())
	})
	if err != nil {
		return nil, err
	}
	defer out.retire(ds)
	c := newClient(ds.front().base, r.cfg.Churn.Clients)
	defer c.close()
	r.closedLoop(out, c, r.cfg.Churn.Clients, func(i int) func() request { return r.cfg.churnGen(r.seed, i).next })
	out.scrape = scrape(c, "")
	return out, nil
}

// closedLoopWindows is how many slices a closed-loop run is measured in.
const closedLoopWindows = 10

// closedLoop runs clients that each send their next request as soon as
// the previous reply is in, until the measured time is up.  A request is
// due when its client's previous reply arrived.
func (r *run) closedLoop(out *outcome, c *client, clients int, stream func(client int) func() request) {
	var col collector
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(r.span)
	window := r.span / closedLoopWindows
	for i := 0; i < clients; i++ {
		next := stream(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for due.Before(deadline) {
				req := next()
				sent := time.Now()
				body, err := c.analyze(req)
				done := time.Now()
				w := min(int(done.Sub(start)/window), closedLoopWindows-1)
				col.add(sample{req: req, body: body, err: err, latency: done.Sub(due), late: sent.Sub(due), window: w})
				due = done
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	for range closedLoopWindows {
		out.windows = append(out.windows, window)
	}
	// The last slice also holds the replies that arrived after the deadline.
	out.windows[closedLoopWindows-1] = out.elapsed - (closedLoopWindows-1)*window
	out.samples = col.samples
}

// warmStream draws warm keys uniformly, one seeded stream per client.
func (r *run) warmStream(client int) func() request {
	rng := newRNG(r.seed, uint64(2000+client))
	keys := r.cfg.Warm.Keys
	return func() request { return keys[rng.IntN(len(keys))] }
}

// warm runs closed-loop clients over the warm key set against one
// pre-warmed daemon: every reply is a result-cache hit or a closed-form
// answer, so only the hot path (HTTP, normalization, cache lookup, JSON)
// is measured.
func (r *run) warm() (*outcome, error) {
	out := &outcome{}
	ds, err := r.setUp(out, func() (daemonSet, error) {
		return r.startPrewarmed(r.cfg.daemonFlags("warm"), "", r.cfg.Warm.Keys)
	})
	if err != nil {
		return nil, err
	}
	defer out.retire(ds)
	c := newClient(ds.front().base, r.cfg.Warm.Clients)
	defer c.close()
	r.closedLoop(out, c, r.cfg.Warm.Clients, r.warmStream)
	out.scrape = scrape(c, "")
	return out, nil
}

// fleet sends the warm traffic through a -route router in front of
// -peers nodes, so every request crosses the cluster forward hop.
func (r *run) fleet() (*outcome, error) {
	out := &outcome{}
	ds, err := r.setUp(out, r.startFleet)
	if err != nil {
		return nil, err
	}
	defer out.retire(ds)
	c := newClient(ds.front().base, r.cfg.Warm.Clients)
	defer c.close()
	r.closedLoop(out, c, r.cfg.Warm.Clients, r.warmStream)
	out.scrape = map[string]float64{}
	for i, d := range ds {
		name := "node" + strconv.Itoa(i) + "."
		if d == ds.front() {
			name = "router."
		}
		dc := newClient(d.base, 1)
		for k, v := range scrape(dc, name) {
			out.scrape[k] = v
		}
		dc.close()
	}
	return out, nil
}

// startFleet starts the nodes, then the router, and prewarms through it.
func (r *run) startFleet() (daemonSet, error) {
	ports := make([]int, r.cfg.Fleet.Nodes+1)
	urls := make([]string, r.cfg.Fleet.Nodes)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
		if i < len(urls) {
			urls[i] = "http://127.0.0.1:" + strconv.Itoa(p)
		}
	}
	peers := strings.Join(urls, ",")
	var ds daemonSet
	for i, u := range urls {
		d, err := startDaemon(r.nobld, ports[i], append(r.cfg.daemonFlags("fleet"), "-peers", peers, "-self", u), "")
		if err != nil {
			ds.stop()
			return nil, err
		}
		ds = append(ds, d)
	}
	router, err := startDaemon(r.nobld, ports[len(urls)], append(r.cfg.daemonFlags("fleet"), "-route", "-peers", peers), "")
	if err != nil {
		ds.stop()
		return nil, err
	}
	ds = append(ds, router)
	if err := prewarm(router.base, r.cfg.Warm.Keys); err != nil {
		ds.stop()
		return nil, err
	}
	return ds, nil
}

// scrape flattens the numeric series of /metrics?format=json, minus the
// histogram buckets.  A series the daemon does not expose is simply
// absent: scraped counts are context, never a reason to fail a run.
func scrape(c *client, prefix string) map[string]float64 {
	var m map[string]any
	if err := c.getJSON("/metrics?format=json", &m); err != nil {
		return nil
	}
	out := map[string]float64{}
	var walk func(string, any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case float64:
			out[prefix+path] += x
		case map[string]any:
			for k, sub := range x {
				if k == "buckets" || path == "latency_ms" || path == "run_ms" {
					continue
				}
				p := k
				if strings.Contains(k, "://") {
					// Per-peer series are keyed by URL, whose port
					// changes every run: fold them into one series.
					p = ""
				}
				if path != "" {
					p = strings.TrimSuffix(path+"."+p, ".")
				}
				walk(p, sub)
			}
		}
	}
	walk("", m)
	return out
}
