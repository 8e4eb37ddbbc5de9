package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// config is workloads.json: the fixed algorithm list, sizes, key sets
// and daemon flags of every workload, and its "notes" record why.
// Nothing here is read from the daemon's open registry, so a registry
// change cannot silently change what the benchmark measures.
type config struct {
	DaemonFlags  []string    `json:"daemon_flags"`
	MinSamples   int         `json:"min_samples"`
	SetupsPerRun int         `json:"setups_per_run"`
	MachineGrids [][]machine `json:"machine_grids"`
	ColdSweep    struct {
		Pairs        []pair    `json:"pairs"`
		Network      []netSpec `json:"network"`
		NetworkSeeds int       `json:"network_seeds"`
	} `json:"cold_sweep"`
	Churn struct {
		Clients        int       `json:"clients"`
		DaemonFlags    []string  `json:"daemon_flags"`
		ZipfS          float64   `json:"zipf_s"`
		ReplayShare    float64   `json:"replay_share"`
		CacheShare     float64   `json:"cache_share"`
		NetworkShare   float64   `json:"network_share"`
		TraceMemBudget int64     `json:"trace_mem_budget"`
		Pairs          []pair    `json:"pairs"`
		Network        []netSpec `json:"network"`
		NetworkSeeds   int       `json:"network_seeds"`
	} `json:"churn"`
	Warm struct {
		Clients int       `json:"clients"`
		Keys    []request `json:"keys"`
	} `json:"warm"`
	Fleet struct {
		Nodes int `json:"nodes"`
	} `json:"fleet"`
}

// pair is one (algorithm, n) point.
type pair struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
}

// netSpec is one kind "network" request shape; the routing seed is
// drawn per request.
type netSpec struct {
	P        int    `json:"p"`
	Topology string `json:"topology,omitempty"`
	Strategy string `json:"strategy,omitempty"`
}

func (s netSpec) request(seed int64) request {
	return request{Kind: "network", Machines: []machine{{P: s.P}}, Topology: s.Topology, Strategy: s.Strategy, Seed: seed}
}

// daemonFlags is the fixed command line of the workload's daemons,
// before per-process addresses and directories.
func (c *config) daemonFlags(workload string) []string {
	flags := append([]string(nil), c.DaemonFlags...)
	if workload == "churn" {
		flags = append(append(flags, c.Churn.DaemonFlags...),
			"-trace-mem-budget", strconv.FormatInt(c.Churn.TraceMemBudget, 10))
	}
	return flags
}

func loadConfig(path string) (*config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.MachineGrids) == 0 || len(c.ColdSweep.Pairs) == 0 || len(c.Churn.Pairs) == 0 || len(c.Warm.Keys) == 0 {
		return nil, fmt.Errorf("%s: grids, cold-sweep pairs, churn pairs and warm keys must be non-empty", path)
	}
	if c.MinSamples < 20 || c.SetupsPerRun < 1 || c.Churn.Clients < 1 || c.Warm.Clients < 1 || c.Fleet.Nodes < 1 {
		return nil, fmt.Errorf("%s: min_samples >= 20, setups_per_run, client counts and fleet nodes must be positive", path)
	}
	return &c, nil
}
