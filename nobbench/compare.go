package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// runsByMetric holds one side's values, in run order, per workload and
// metric.
type runsByMetric map[string]map[string][]float64

// readRuns collects the record lines of a file of benchmark output (the
// standard output of any number of runs, concatenated).
func readRuns(path string) (runsByMetric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runsByMetric{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict applies the choosing-metrics §8 rule to paired runs.  A gain
// needs the change to win at least nine tenths of the pairs and a median
// gap wider than the parent's own interquartile spread; a loss is the
// mirror image, or a median worse by more than the metric's bound.
// Anything else is unresolved.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	pairs := min(len(parent), len(change))
	if pairs == 0 {
		return "unresolved"
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		d := change[i] - parent[i]
		if lowerBetter {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	gain := cm - pm
	if lowerBetter {
		gain = -gain
	}
	spread := q3 - q1
	need := 0.9 * float64(pairs)
	switch {
	case float64(wins) >= need && gain > spread:
		return "better"
	case float64(losses) >= need && -gain > spread:
		return "worse"
	case bound > 0 && -gain > bound*math.Abs(pm) && spread <= bound*math.Abs(pm):
		return "worse"
	}
	return "unresolved"
}

// compareFiles prints one row per workload and metric present on both
// sides: each side's median and quartiles, and the verdict.
func compareFiles(w io.Writer, spec *benchSpec, parentPath, changePath string) error {
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	metrics := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		metrics[m.Name] = m
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\truns\tverdict")
	var workloads []string
	for wl := range parent {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		var names []string
		for name := range parent[wl] {
			if _, ok := change[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			p, c := parent[wl][name], change[wl][name]
			m := metrics[name]
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				wl, name, m.Unit, pm, pq1, pq3, cm, cq1, cq3, len(p), len(c),
				verdict(p, c, m.Better == "lower", m.Bound))
		}
	}
	return tw.Flush()
}
