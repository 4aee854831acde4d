// Command e2ebench is the end-to-end benchmark of ihnetd. It boots the
// daemon's stack in process (the same public constructors cmd/ihnetd
// calls, with auto-advance off), serves it on a loopback listener and
// drives it with internal/apiclient. Three workloads:
//
//	host-mutate    one two-socket host with a durable store (sync "os"):
//	               admit/batch, advance 100us, report, evict cycles, plus
//	               scrapes, checkpoints and one SSE watcher
//	fleet-advance  128 synthetic recording hosts on the sharded runner:
//	               1 ms fleet advances, placements, host list, roll-ups
//	restart        repeated cold recoveries of a seeded store fixture,
//	               each followed by a burst of post-restart traffic
//
// Every workload runs a fixed amount of work that scales with
// --seconds (calibrated so one run measures about that long on a
// 2-core x86 box), so a seed always produces the same requests and the
// same final state hashes. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end numbers; with --trace 1 the
// run repeats the workload with spans on and reports per-layer numbers
// instead (the spans are written under --out). See e2ebench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Workload, "workload", "", "host-mutate, fleet-advance or restart")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the generated requests")
	flag.IntVar(&cfg.Seconds, "seconds", 10, "scale of the run: about this many seconds of measured work")
	trace := flag.Int("trace", 0, "1 = repeat the run with spans on and report per-layer metrics")
	flag.StringVar(&cfg.OutDir, "out", filepath.Join(".bench_build", "e2ebench-out"),
		"directory for scratch stores and span files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.Trace = *trace == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, line := range res.Report {
		fmt.Println(line)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
