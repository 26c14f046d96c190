// Command e2ebench is the repository's end-to-end benchmark: the real
// metadns server and a replay client built on replay.New/Engine.Replay
// (the `ldplayer replay` path, reading an LDTRC02 block trace) run as two
// fresh processes pinned to disjoint halves of the CPUs, on a seeded
// traceg workload paced at trace time. Every run checks its outputs —
// the per-query ledger balances and a sample of responses matches an
// in-process authserver.Engine byte for byte — and prints the metrics as
// one JSON line. A traced run (--trace 1) instruments both sides, prints
// per-layer metrics and the tracing overhead, and writes per-query spans.
//
// Run it from the repository root through run.sh, which builds both
// programs first:
//
//	bash e2ebench/run.sh --workload broot-paced --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "client" {
		if err := runClient(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench client:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		if err := runProbe(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench probe:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.work, "work", "", "directory for traces, zones and results")
	flag.StringVar(&o.metadns, "metadns", "", "metadns binary")
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "trace duration to replay, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type options struct {
	work, metadns, workload string
	seed                    int64
	seconds, trace          int
}

// metric is one named value of the result line, with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// envInfo is recorded with every result.
type envInfo struct {
	NProc            int    `json:"nproc"`
	ClientCPUs       string `json:"client_cpus"`
	ServerCPUs       string `json:"server_cpus"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Kernel           string `json:"kernel"`
	clientCPUs       []int
	serverCPUs       []int
}

// detectEnv splits the CPUs this process may use into a client half and
// a server half.
func detectEnv() (envInfo, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return envInfo{}, err
	}
	if len(cpus) < 2 {
		return envInfo{}, fmt.Errorf("need at least 2 CPUs to pin client and server apart, have %v", cpus)
	}
	half := len(cpus) / 2
	e := envInfo{
		NProc:      len(cpus),
		clientCPUs: cpus[:half],
		serverCPUs: cpus[half:],
		GoVersion:  runtime.Version(),
	}
	e.ClientCPUs, e.ServerCPUs = cpuListString(e.clientCPUs), cpuListString(e.serverCPUs)
	e.ClientGOMAXPROCS, e.ServerGOMAXPROCS = len(e.clientCPUs), len(e.serverCPUs)
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(k))
	}
	return e, nil
}

func run(o options) error {
	if o.work == "" || o.metadns == "" {
		return fmt.Errorf("-work and -metadns are required (run through e2ebench/run.sh)")
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	env, err := detectEnv()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	base, err := measure(wl, o, env, self, false)
	if err != nil {
		return err
	}
	metrics := base.endToEnd()
	if o.trace == 1 {
		traced, err := measure(wl, o, env, self, true)
		if err != nil {
			return err
		}
		untraced := metrics
		metrics = traced.perLayer()
		for i, m := range traced.endToEnd() {
			metrics = append(metrics, metric{"overhead." + m.name, m.unit, m.value - untraced[i].value})
		}
		if err := traced.writeSpans(filepath.Join(o.work, "spans", wl.name+".tsv")); err != nil {
			return err
		}
	}

	fmt.Println(base.summary())
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	hostLine, err := json.Marshal(map[string]any{"host": map[string]any{
		"probe_setup_ns": base.probeSetupNs, "probe_replay_ns": base.probeReplayNs,
		"server_cpu_us_per_answer_raw": base.rawServerCPU(), "setup_s_raw": base.rawSetup()}})
	if err != nil {
		return err
	}
	fmt.Println(string(hostLine))
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	for _, m := range metrics {
		out[m.name] = val{m.value, m.unit}
	}
	// A query fails unless it is answered: send errors, duplicate
	// discards and unanswered queries all count.
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{true, base.ledger.Entries, base.ledger.Entries - base.ledger.Answered, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
