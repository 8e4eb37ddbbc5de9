// Command nobtraced is the traced pass of the nobld benchmark.  It
// replays a benchmark run's request sequence in-process through the
// layers' public functions — the trace store, the engines, fold,
// eval, dbsp, the cache simulator, network routing, the trace codecs,
// schedule compilation, the service handler and the cluster ring —
// records a span around every call, and prints per-layer metrics.
// Spans are kept in memory and written out at the end.
//
// It is a module of its own so that it may import the module under test
// while the end-to-end runner (the parent directory) imports none of it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"netoblivious/internal/cachesim"
	"netoblivious/internal/cluster"
	"netoblivious/internal/core"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/eval"
	"netoblivious/internal/harness"
	"netoblivious/internal/network"
	"netoblivious/internal/obs"
	"netoblivious/internal/service"
)

type machine struct {
	P     int     `json:"p"`
	Sigma float64 `json:"sigma"`
}

type request struct {
	Algorithm string    `json:"algorithm,omitempty"`
	N         int       `json:"n,omitempty"`
	Kind      string    `json:"kind"`
	Engine    string    `json:"engine,omitempty"`
	Machines  []machine `json:"machines,omitempty"`
	Topology  string    `json:"topology,omitempty"`
	Strategy  string    `json:"strategy,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Wait      bool      `json:"wait,omitempty"`
}

type input struct {
	Workload       string      `json:"workload"`
	Segments       [][]request `json:"segments"`
	TraceMemBudget int64       `json:"trace_mem_budget"`
	RingMembers    int         `json:"ring_members"`
}

// Constants of the analyses, as nobld uses them.
var cacheSweepSizes = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}

const (
	ctxWords, bWords   = 8, 8
	defaultTraceCap    = 64 // nobld -trace-entries default
	defaultNetworkSeed = 7
	ringCallsPerSpan   = 64
	serviceProbePairs  = 8
)

func main() {
	inPath := flag.String("in", "", "request sequence written by nobbench")
	seconds := flag.Int("seconds", 10, "stop replaying after this long")
	spillDir := flag.String("spill-dir", "", "spill directory for a budgeted trace store")
	spansPath := flag.String("spans", "", "write the spans here")
	flag.Parse()
	b, err := os.ReadFile(*inPath)
	if err != nil {
		fatal(err)
	}
	var in input
	if err := json.Unmarshal(b, &in); err != nil {
		fatal(err)
	}
	p := &pass{in: in, spillDir: *spillDir, probe: obs.NewBoundedProbe(1 << 20)}
	p.tr.t0 = time.Now()
	p.deadline = p.tr.t0.Add(time.Duration(*seconds) * time.Second)
	err = p.run()
	os.RemoveAll(*spillDir)
	if err != nil {
		fatal(err)
	}
	if *spansPath != "" {
		if err := p.tr.write(*spansPath); err != nil {
			fatal(err)
		}
	}
	out, err := json.Marshal(map[string]any{"metrics": p.metrics()})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nobtraced:", err)
	os.Exit(1)
}

// pass is one traced replay.
type pass struct {
	in       input
	spillDir string
	probe    *obs.Probe
	tr       tracer
	deadline time.Time

	replayed, requests     int
	storeHits, storeMisses int64
	spills, reloads        int64
}

func (p *pass) run() error {
	ring, err := cluster.New(0, 0, ringMembers(max(p.in.RingMembers, 1)))
	if err != nil {
		return err
	}
	root := p.tr.begin("pass", map[string]string{"workload": p.in.Workload})
	defer p.tr.end(root, 0)
	for i, seg := range p.in.Segments {
		p.requests += len(seg)
		if time.Now().After(p.deadline) {
			continue
		}
		if err := p.segment(i, seg, ring); err != nil {
			return err
		}
	}
	return nil
}

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "http://127.0.0.1:" + strconv.Itoa(7421+i)
	}
	return out
}

// segment replays requests that the untraced run sent to one daemon:
// a fresh trace store and service per segment, as the daemon had.
// Repeated requests are answered by the in-process service handler,
// standing in for the daemon's result cache.
func (p *pass) segment(idx int, seg []request, ring *cluster.Ring) error {
	var store *harness.TraceStore
	if p.in.TraceMemBudget > 0 {
		var err error
		if store, err = harness.NewSpillingTraceStore(p.in.TraceMemBudget, filepath.Join(p.spillDir, strconv.Itoa(idx))); err != nil {
			return err
		}
	} else {
		store = harness.NewBoundedTraceStore(defaultTraceCap)
	}
	store.SetProbe(p.probe)
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		return err
	}
	defer srv.Close()
	seen := map[string]bool{}
	recorded := map[string]bool{}
	for _, req := range seg {
		if time.Now().After(p.deadline) {
			break
		}
		p.replayed++
		p.tr.req++
		rs := p.tr.begin("request", map[string]string{"kind": req.Kind})
		key, _ := json.Marshal(req) // plain struct
		rid := p.tr.begin("cluster.ring_owner", nil)
		for range ringCallsPerSpan {
			_ = ring.Owner(string(key))
		}
		p.tr.end(rid, ringCallsPerSpan)
		if seen[string(key)] || req.Kind == "bounds" || req.Kind == "machines" {
			err = p.serve(srv, req)
		} else {
			err = p.analyze(store, req, recorded)
		}
		seen[string(key)] = true
		p.tr.end(rs, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	p.serviceProbe(srv, seg)
	st := store.Stats()
	p.storeHits += st.Hits
	p.storeMisses += st.Misses
	if sp, ok := store.SpillStats(); ok {
		p.spills += sp.Spills
		p.reloads += sp.Reloads
	}
	return nil
}

// serve answers req through the in-process service handler.
func (p *pass) serve(srv *service.Server, req request) error {
	req.Wait = true
	body, _ := json.Marshal(req) // plain struct
	id := p.tr.begin("service.handler", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
	p.tr.end(id, float64(rec.Body.Len()))
	if rec.Code/100 != 2 {
		return fmt.Errorf("service: HTTP %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var r struct {
		Cached bool `json:"cached"`
	}
	if req.Kind == "bounds" || req.Kind == "machines" || (json.Unmarshal(rec.Body.Bytes(), &r) == nil && r.Cached) {
		p.tr.spans[id].Attrs = map[string]string{"fast": "true"}
	}
	return nil
}

// serviceProbe asks the handler for the bounds of the segment's first
// few (algorithm, n) pairs, so every workload measures the path a reply
// takes when it needs no job: normalization, the closed-form or
// result-cache answer, and JSON encoding.
func (p *pass) serviceProbe(srv *service.Server, seg []request) {
	done := map[string]bool{}
	for _, r := range seg {
		k := r.Algorithm + "/" + strconv.Itoa(r.N)
		if r.Algorithm == "" || done[k] || len(done) == serviceProbePairs {
			continue
		}
		done[k] = true
		_ = p.serve(srv, request{Kind: "bounds", Algorithm: r.Algorithm, N: r.N})
	}
}

func engineOf(req request) (core.Engine, error) {
	if req.Engine == "" {
		return core.BlockEngine{}, nil
	}
	return core.EngineByName(req.Engine)
}

// analyze runs one not-yet-answered request through the layers, the way
// nobld's analysis path does.
func (p *pass) analyze(store *harness.TraceStore, req request, recorded map[string]bool) error {
	if req.Kind == "network" {
		return p.network(req)
	}
	eng, err := engineOf(req)
	if err != nil {
		return err
	}
	rec := req.Kind == "cache"
	run, err := p.get(store, eng, req.Algorithm, req.N, rec)
	if err != nil {
		return err
	}
	tr := run.Trace
	switch req.Kind {
	case "trace", "dbsp":
		id := p.tr.begin("core.fold.summarize", nil)
		fs, err := tr.Summary()
		p.tr.end(id, float64(tr.NumSupersteps()))
		if err != nil {
			return err
		}
		machines := resolveMachines(req.Machines, tr.V)
		if req.Kind == "trace" {
			for _, m := range machines {
				id := p.tr.begin("eval.measure", nil)
				_ = eval.MeasureSummary(fs, m.P, m.Sigma)
				_ = eval.CheckFoldingLemmaOf(fs, m.P)
				p.tr.end(id, 1)
			}
			return nil
		}
		maxP := 2
		for _, m := range machines {
			maxP = max(maxP, m.P)
		}
		for _, pr := range dbsp.Presets(maxP) {
			id := p.tr.begin("dbsp.commtime", nil)
			_ = dbsp.CommTimeSummary(fs, pr)
			_ = pr.Admissible()
			p.tr.end(id, 1)
		}
		return nil
	case "cache":
		if err := p.cacheCurve(tr); err != nil {
			return err
		}
		k := req.Algorithm + "/" + strconv.Itoa(req.N) + "/" + eng.Name()
		if !recorded[k] {
			recorded[k] = true
			return p.derived(tr)
		}
		return nil
	}
	return fmt.Errorf("unknown kind %q", req.Kind)
}

// get wraps one trace-store lookup and adopts the program's own probe
// spans (run, supersteps, schedule compile) beneath it.
func (p *pass) get(store *harness.TraceStore, eng core.Engine, name string, n int, rec bool) (harness.AlgRun, error) {
	before := store.Stats()
	var reloadsBefore int64
	if sp, ok := store.SpillStats(); ok {
		reloadsBefore = sp.Reloads
	}
	attrs := map[string]string{"engine": eng.Name(), "recorded": strconv.FormatBool(rec)}
	id := p.tr.begin("harness.trace_store.get", attrs)
	var run harness.AlgRun
	var err error
	if rec {
		run, err = store.GetRecorded(context.Background(), eng, name, n)
	} else {
		run, err = store.Get(context.Background(), eng, name, n)
	}
	work := 0.0
	if err == nil {
		work = float64(run.Trace.TotalMessages())
	}
	p.tr.end(id, work)
	outcome := "hit"
	if store.Stats().Misses > before.Misses {
		outcome = "miss"
		if sp, ok := store.SpillStats(); ok && sp.Reloads > reloadsBefore {
			outcome = "reload"
		}
	}
	attrs["outcome"] = outcome
	p.adoptProbe(id, attrs)
	return run, err
}

// adoptProbe moves the probe's recorded spans under span parent.
func (p *pass) adoptProbe(parent int, attrs map[string]string) {
	var buf bytes.Buffer
	if err := p.probe.WriteChromeTrace(&buf); err != nil {
		return
	}
	p.probe.Reset()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if json.Unmarshal(buf.Bytes(), &doc) != nil {
		return
	}
	type ev struct {
		name       string
		start, end int64
	}
	var evs []ev
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		name := ""
		switch {
		case e.Name == "trace-compute":
			name = "core.run"
		case e.Name == "schedule-compile":
			name = "core.replay.compile"
		case strings.HasPrefix(e.Name, "superstep "):
			name = "core.superstep"
		default:
			continue
		}
		start := int64(e.TS * 1e3)
		evs = append(evs, ev{name, start, start + int64(e.Dur*1e3)})
	}
	// Outer spans first, so each event nests under the innermost adopted
	// span that encloses it.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].start != evs[j].start {
			return evs[i].start < evs[j].start
		}
		return evs[i].end > evs[j].end
	})
	var open []int
	for _, e := range evs {
		for len(open) > 0 && p.tr.spans[open[len(open)-1]].End <= e.start {
			open = open[:len(open)-1]
		}
		par := parent
		if len(open) > 0 {
			par = open[len(open)-1]
		}
		open = append(open, p.tr.adopt(e.name, e.start, e.end, par, attrs))
	}
}

// cacheCurve is the cache analysis: one pass of the trace drives every
// cache size of the sweep.
func (p *pass) cacheCurve(tr *core.Trace) error {
	id := p.tr.begin("cachesim.curve", nil)
	cs, err := cachesim.NewCurveSim(tr.V, ctxWords, bWords, cacheSweepSizes)
	if err != nil {
		p.tr.end(id, 0)
		return err
	}
	src := tr.Source()
	defer src.Close()
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			p.tr.end(id, 0)
			return err
		}
		if err := cs.Step(rec); err != nil {
			p.tr.end(id, 0)
			return err
		}
	}
	_ = cs.Misses()
	p.tr.end(id, float64(cs.Accesses()))
	return nil
}

// derived exercises, once per recorded run, the layers the daemon
// reaches through that run without a request of its own: the binary
// codec (spill write and reload), the JSON codec, and schedule
// compilation and warm replay (the replay engine's cache).
func (p *pass) derived(tr *core.Trace) error {
	var bin bytes.Buffer
	id := p.tr.begin("core.codec.binary.encode", nil)
	w := core.NewTraceBinaryWriter(&bin)
	err := w.BeginTrace(tr.V, tr.LogV)
	for i := 0; err == nil && i < len(tr.Steps); i++ {
		err = w.WriteStep(tr.Steps[i])
	}
	if err == nil {
		err = w.EndTrace(nil)
	}
	p.tr.end(id, float64(bin.Len()))
	if err != nil {
		return fmt.Errorf("binary encode: %w", err)
	}
	id = p.tr.begin("core.codec.binary.decode", nil)
	r, err := core.NewTraceBinaryReader(bytes.NewReader(bin.Bytes()))
	for err == nil {
		_, err = r.Next()
	}
	p.tr.end(id, float64(bin.Len()))
	if err != io.EOF {
		return fmt.Errorf("binary decode: %w", err)
	}
	cw := &countingWriter{}
	id = p.tr.begin("core.codec.json.encode", nil)
	err = tr.EncodeJSON(cw)
	p.tr.end(id, float64(cw.n))
	if err != nil {
		return fmt.Errorf("json encode: %w", err)
	}
	id = p.tr.begin("core.schedule.compile", nil)
	s, err := core.CompileSchedule(tr)
	p.tr.end(id, float64(tr.TotalMessages()))
	if err != nil {
		return err
	}
	id = p.tr.begin("core.schedule.replay", nil)
	_ = s.Replay(false)
	p.tr.end(id, float64(tr.TotalMessages()))
	return nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// network routes the request's cluster h-relations as nobld's network
// analysis does: every valid family at p (or the named one), three
// cluster levels, h ∈ {1, 4, 16}.
func (p *pass) network(req request) error {
	pmax := 2
	for _, m := range req.Machines {
		pmax = max(pmax, m.P)
	}
	strategy := req.Strategy
	if strategy == "" {
		strategy = network.StrategyShortestPath
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultNetworkSeed
	}
	families := network.TopologyNames()
	if req.Topology != "" {
		families = []string{req.Topology}
	}
	rng := rand.New(rand.NewSource(defaultNetworkSeed))
	for _, family := range families {
		if req.Topology == "" && !network.TopologyValid(family, pmax) {
			continue
		}
		topo, err := network.TopologyByName(family, pmax)
		if err != nil {
			return err
		}
		sim := network.NewSim(topo)
		for _, level := range networkLevels(pmax) {
			for _, h := range []int{1, 4, 16} {
				router, err := network.RouterByName(strategy, seed)
				if err != nil {
					return err
				}
				msgs := network.ClusterHRelation(rng, pmax, level, h)
				id := p.tr.begin("network.route", nil)
				rr := sim.RouteWith(router, msgs)
				p.tr.end(id, float64(rr.TotalHops))
			}
		}
	}
	return nil
}

func networkLevels(p int) []int {
	lp := 0
	for q := p; q > 1; q /= 2 {
		lp++
	}
	levels := []int{0}
	if lp >= 2 {
		levels = append(levels, lp/2)
	}
	return append(levels, lp)
}

// resolveMachines is nobld's machine-list resolution: explicit machines
// that fit v, else powers of two up to min(v, 64) at σ ∈ {0, 16}.
func resolveMachines(ms []machine, v int) []machine {
	var out []machine
	if len(ms) > 0 {
		for _, m := range ms {
			if m.P <= v {
				out = append(out, m)
			}
		}
		return out
	}
	for _, sigma := range []float64{0, 16} {
		for q := 2; q <= min(v, 64); q *= 2 {
			out = append(out, machine{P: q, Sigma: sigma})
		}
	}
	return out
}

// metrics aggregates the spans into the per-layer metrics.
func (p *pass) metrics() map[string]float64 {
	durs := map[string][]float64{} // per span class, in µs
	work := map[string]float64{}   // per span class: total work
	busy := map[string]float64{}   // per span class: total seconds
	self := p.tr.selfTimes()
	var layerSelf time.Duration
	for i, s := range p.tr.spans {
		class := s.Name
		switch s.Name {
		case "core.run", "core.superstep":
			class += "." + s.Attrs["engine"]
			if s.Attrs["recorded"] == "true" {
				class += ".rec"
			}
		case "harness.trace_store.get":
			class += "." + s.Attrs["outcome"]
		case "service.handler":
			if s.Attrs["fast"] == "true" {
				class += ".fast"
			}
		}
		us := float64(s.dur()) / float64(time.Microsecond)
		durs[class] = append(durs[class], us)
		work[class] += s.Work
		busy[class] += s.dur().Seconds()
		if s.Parent >= 0 {
			layerSelf += self[i]
		}
	}
	med := func(class string) float64 { return median(durs[class]) }
	rate := func(class string) float64 {
		if busy[class] == 0 {
			return 0
		}
		return work[class] / busy[class]
	}
	wall := p.tr.spans[0].dur()
	total := p.storeHits + p.storeMisses
	m := map[string]float64{
		"core.block.run_ms":               med("core.run.block") / 1e3,
		"core.block.superstep_us":         med("core.superstep.block"),
		"core.block.msgs_per_s":           msgRate(p.tr.spans, "block"),
		"core.record.run_ms":              med("core.run.block.rec") / 1e3,
		"core.schedule.compile_ms":        med("core.schedule.compile") / 1e3,
		"core.schedule.replay_hit_us":     med("core.schedule.replay"),
		"core.codec.binary.encode_mb_s":   rate("core.codec.binary.encode") / 1e6,
		"core.codec.binary.decode_mb_s":   rate("core.codec.binary.decode") / 1e6,
		"core.codec.json.encode_mb_s":     rate("core.codec.json.encode") / 1e6,
		"core.fold.summarize_ms":          med("core.fold.summarize") / 1e3,
		"eval.measure_us":                 med("eval.measure"),
		"dbsp.commtime_us":                med("dbsp.commtime"),
		"cachesim.curve_ms":               med("cachesim.curve") / 1e3,
		"cachesim.accesses_per_s":         rate("cachesim.curve"),
		"network.route_us":                med("network.route"),
		"network.hops_per_s":              rate("network.route"),
		"harness.trace_store.hit_ratio":   float64(p.storeHits) / math.Max(float64(total), 1),
		"harness.trace_store.get_miss_ms": med("harness.trace_store.get.miss") / 1e3,
		"harness.spill.spills":            float64(p.spills),
		"harness.spill.reloads":           float64(p.reloads),
		"service.serve_fast_us":           med("service.handler.fast"),
		"service.response_bytes":          median(workOf(p.tr.spans, "service.handler", "true")),
		"cluster.ring_owner_ns":           busy["cluster.ring_owner"] * 1e9 / math.Max(work["cluster.ring_owner"], 1),
		"traced.wall_s":                   wall.Seconds(),
		"traced.self_share":               float64(layerSelf) / float64(wall),
		"traced.replayed_share":           float64(p.replayed) / math.Max(float64(p.requests), 1),
	}
	for k, v := range m {
		if math.IsNaN(v) {
			m[k] = 0
		}
	}
	return m
}

// msgRate is messages delivered per second of unrecorded engine runs.
func msgRate(spans []span, engine string) float64 {
	var msgs, secs float64
	for _, s := range spans {
		if s.Name == "harness.trace_store.get" && s.Attrs["engine"] == engine && s.Attrs["recorded"] == "false" && s.Attrs["outcome"] == "miss" {
			msgs += s.Work
			secs += s.dur().Seconds()
		}
	}
	if secs == 0 {
		return 0
	}
	return msgs / secs
}

func workOf(spans []span, name, fast string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Attrs["fast"] == fast {
			out = append(out, s.Work)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
