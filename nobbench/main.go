// Command nobbench is the benchmark of the nobld analysis daemon.  It
// starts fresh nobld processes built from the tree under test, drives
// them over HTTP with seeded workloads, verifies every reply against
// golden answers, and prints the metrics named in BENCHMARK.json.
//
// Run it through bench.sh from the root of a checkout, which builds the
// daemon, this runner and the traced pass first:
//
//	bash nobbench/bench.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
//	bash nobbench/bench.sh golden                   # regenerate golden.json
//	bash nobbench/bench.sh compare parent.txt change.txt
//
// With --trace 1 the run is followed by an in-process traced pass over
// the same request sequence (nobbench/traced), and the per-layer metrics
// are printed instead of the end-to-end ones.  The last line of standard
// output is always the result object; the line before it is the full
// record (environment, scraped daemon counters, verification counts)
// that compare mode reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	root := flag.String("root", ".", "root of the checkout under test")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built nobld and nobtraced")
	confPath := flag.String("config", "nobbench/workloads.json", "workload configuration")
	goldenPath := flag.String("golden", "nobbench/golden.json", "golden answers")
	specPath := flag.String("benchmark", "BENCHMARK.json", "benchmark definition (metric names and units)")
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics from a traced pass")
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	cfg, err := loadConfig(*confPath)
	if err != nil {
		fatal(err)
	}
	switch flag.Arg(0) {
	case "golden":
		if err := writeGolden(cfg, filepath.Join(*bin, "nobld"), *goldenPath); err != nil {
			fatal(err)
		}
		return
	case "compare":
		if flag.NArg() != 3 {
			fatal(fmt.Errorf("usage: compare PARENT CHANGE"))
		}
		spec, err := loadSpec(*specPath)
		if err != nil {
			fatal(err)
		}
		if err := compareFiles(os.Stdout, spec, flag.Arg(1), flag.Arg(2)); err != nil {
			fatal(err)
		}
		return
	case "":
	default:
		fatal(fmt.Errorf("unknown mode %q", flag.Arg(0)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	g, err := loadGolden(*goldenPath)
	if err != nil {
		fatal(err)
	}
	scratch, err := filepath.Abs(filepath.Join(*root, ".bench_build", "run", strconv.Itoa(os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(err)
	}
	r := &run{cfg: cfg, nobld: filepath.Join(*bin, "nobld"), scratch: scratch, seed: *seed, span: time.Duration(*seconds) * time.Second}
	code, err := r.execute(*workload, *trace == 1, spec, g, filepath.Join(*bin, "nobtraced"), captureEnv(*root, *seed, cfg.daemonFlags(*workload)))
	if err != nil {
		os.RemoveAll(scratch)
		fatal(err)
	}
	os.RemoveAll(scratch)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nobbench:", err)
	os.Exit(2)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the line before the result: everything compare mode and a
// reader of the run need besides the metrics.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Env      environment        `json:"env"`
	Samples  int                `json:"samples"`
	SetupS   []float64          `json:"setup_s_each"`
	RSSMB    []float64          `json:"peak_rss_mb_each"`
	Verify   verifyReport       `json:"verify"`
	Scrape   map[string]float64 `json:"scrape,omitempty"`
	Result   result             `json:"result"`
}

type verifyReport struct {
	CacheOrderMismatches int      `json:"cache_order_mismatches"`
	PeakNoteMismatches   int      `json:"peak_note_mismatches"`
	ErrorRate            float64  `json:"error_rate"`
	Errors               []string `json:"errors,omitempty"`
}

func (r *run) execute(workload string, traced bool, spec *benchSpec, g *goldenFile, tracedBin string, env environment) (int, error) {
	var out *outcome
	var err error
	switch workload {
	case "cold-sweep":
		out, err = r.coldSweep()
	case "churn":
		out, err = r.churn()
	case "warm":
		out, err = r.warm()
	case "fleet":
		out, err = r.fleet()
	default:
		return 0, fmt.Errorf("unknown workload %q (have cold-sweep, churn, warm, fleet)", workload)
	}
	if err != nil {
		return 0, err
	}
	v := &verifier{golden: g}
	type checked struct {
		a   answer
		mm  mismatch
		err error
	}
	// Identical replies to one request are verified once.
	seen := map[string]checked{}
	lat := make([][]float64, len(out.windows)) // per window
	okIn := make([]float64, len(out.windows))
	var late []float64
	var rep verifyReport
	failed, cached := 0, 0
	for _, s := range out.samples {
		err := s.err
		if err == nil {
			k := s.req.key() + string(s.hash[:])
			vd, ok := seen[k]
			if !ok {
				vd.a, vd.mm, vd.err = v.check(s.req, s.body)
				seen[k] = vd
			}
			err = vd.err
			switch {
			case err != nil:
			case vd.mm == cacheOrder:
				rep.CacheOrderMismatches++
			case vd.mm == peakNote:
				rep.PeakNoteMismatches++
			}
			if err == nil && vd.a.cached {
				cached++
			}
		}
		late = append(late, ms(s.late))
		if err != nil {
			failed++
			if len(rep.Errors) < 5 {
				rep.Errors = append(rep.Errors, err.Error())
			}
			// A failed request misses every latency limit.
			lat[s.window] = append(lat[s.window], math.Inf(1))
			continue
		}
		okIn[s.window]++
		lat[s.window] = append(lat[s.window], ms(s.latency))
	}
	n := len(out.samples)
	rep.ErrorRate = float64(failed) / float64(max(n, 1))
	ok := float64(n - failed)

	m := map[string]float64{}
	if !traced {
		p50, err := windowedPercentile(lat, 0.5)
		if err != nil {
			return 0, err
		}
		p90, err := windowedPercentile(lat, 0.9)
		if err != nil {
			return 0, err
		}
		rates := make([]float64, len(out.windows))
		for i, w := range out.windows {
			rates[i] = okIn[i] / w.Seconds()
		}
		m["setup_s"] = median(out.setupS)
		m["ops_per_s"] = median(rates)
		m["p50_ms"] = p50
		m["p90_ms"] = p90
		m["peak_rss_mb"] = median(out.rssMB)
	} else {
		lateP90, err := percentile(late, 0.9)
		if err != nil {
			return 0, err
		}
		m["loadgen.lateness_p90_ms"] = lateP90
		m["loadgen.achieved_rps"] = float64(n) / out.elapsed.Seconds()
		m["service.result_cache.hit_ratio"] = float64(cached) / math.Max(ok, 1)
		m["verify.cache_order_mismatches"] = float64(rep.CacheOrderMismatches)
		m["verify.peak_note_mismatches"] = float64(rep.PeakNoteMismatches)
		m["untraced.wall_s"] = out.elapsed.Seconds()
		tm, err := r.tracedPass(workload, tracedBin, out)
		if err != nil {
			return 0, err
		}
		for k, x := range tm {
			m[k] = x
		}
	}
	res := result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metricValue{}}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	for _, sm := range want {
		x, ok := m[sm.Name]
		if !ok {
			return 0, fmt.Errorf("metric %s was not measured", sm.Name)
		}
		res.Metrics[sm.Name] = metricValue{Value: x, Unit: sm.Unit}
	}
	rec := record{Workload: workload, Seed: r.seed, Trace: traced, Env: env, Samples: n, SetupS: out.setupS, RSSMB: out.rssMB, Verify: rep, Scrape: out.scrape, Result: res}
	printJSON(rec)
	printJSON(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "nobbench: %d of %d replies failed verification: %v\n", failed, n, rep.Errors)
		return 1, nil
	}
	return 0, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// benchSpec is the part of BENCHMARK.json nobbench reads: which
// metrics to print, in which unit, and each end-to-end bound.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
