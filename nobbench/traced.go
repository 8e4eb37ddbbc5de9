package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// tracedInput is the file the traced pass reads: the run's request
// sequence, split where the untraced run started a fresh daemon.
type tracedInput struct {
	Workload string      `json:"workload"`
	Segments [][]request `json:"segments"`
	// TraceMemBudget mirrors the daemon's -trace-mem-budget (0 = the
	// count-bounded default store).
	TraceMemBudget int64 `json:"trace_mem_budget"`
	// RingMembers is the cluster size whose ring owns each key.
	RingMembers int `json:"ring_members"`
}

// tracedPass replays the run's requests in-process through the layers'
// public functions (nobbench/traced, a separate module that may import
// the module under test) and returns its per-layer metrics.
func (r *run) tracedPass(workload, bin string, out *outcome) (map[string]float64, error) {
	in := tracedInput{Workload: workload, RingMembers: r.cfg.Fleet.Nodes}
	if workload == "churn" {
		in.TraceMemBudget = r.cfg.Churn.TraceMemBudget
	}
	var warm []request
	if workload == "warm" || workload == "fleet" {
		warm = r.cfg.Warm.Keys
	}
	for _, s := range out.samples {
		for len(in.Segments) <= s.segment {
			in.Segments = append(in.Segments, append([]request(nil), warm...))
		}
		in.Segments[s.segment] = append(in.Segments[s.segment], s.req)
	}
	b, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	inPath := filepath.Join(r.scratch, "requests.json")
	if err := os.WriteFile(inPath, b, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-in", inPath,
		// Half the measured time keeps a traced run within the time a
		// benchmark run may take.
		"-seconds", strconv.Itoa(max(1, int(r.span.Seconds())/2)),
		"-spill-dir", filepath.Join(r.scratch, "traced-spill"),
		"-spans", filepath.Join(r.scratch, "..", workload+"-"+strconv.FormatUint(r.seed, 10)+".spans.json"))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("traced pass output: %w", err)
	}
	return res.Metrics, nil
}
