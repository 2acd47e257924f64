// Command perfbench is the repository's end-to-end benchmark. One run
// generates a workload's inputs from a seed with the harness
// generators (internal/exp, internal/seq), drives them through the
// public entry points (alae.Store, and serve.Server.Handler over
// loopback HTTP), checks every answer against an independent
// reference, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	go run . --workload dna-long --seed 42 --seconds 10 --trace 0
//
// With --trace 1 the run is the traced replay instead: an untraced
// quarter followed by a traced part that replays the same operations
// through each layer's exported entry point, and the per-layer metrics
// are printed. Spans go to a file under --workdir and a per-layer summary
// to standard error. Run it from the repository root (see run.py).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// spec is one workload's fixed parameters (workloads.json).
type spec struct {
	N                int     `json:"n"`
	Members          int     `json:"members"`
	QueryLens        []int   `json:"query_lens"`
	QueryWeights     []int   `json:"query_weights"`
	RateQPS          float64 `json:"rate_qps"`
	LatencyLimitMS   float64 `json:"latency_limit_ms"`
	RepeatFrac       float64 `json:"repeat_frac"`
	AppendLen        int     `json:"append_len"`
	SearchesPerCycle int     `json:"searches_per_cycle"`
	CompactEvery     int     `json:"compact_every"`
	QueryLenMin      int     `json:"query_len_min"`
	QueryLenMax      int     `json:"query_len_max"`
	scale            float64 // input size factor, below 1 only in the self-tests
}

// scaled shrinks a size for the self-tests (scale < 1).
func (s *spec) scaled(v int) int {
	if s.scale >= 1 {
		return v
	}
	return max(int(float64(v)*s.scale), 64)
}

func loadSpecs() (map[string]*spec, error) {
	specs := map[string]*spec{}
	if err := json.Unmarshal(workloadsJSON, &specs); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return specs, nil
}

// metricDef is one declared metric; the lists below must match
// BENCHMARK.json name for name and unit for unit (the self-tests check).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"goodput_qps", "1/s"},
	{"setup_s", "s"},
	{"build_s", "s"},
	{"heap_mb", "MB"},
	{"disk_bytes_per_residue", "B/residue"},
}

var perLayer = []metricDef{
	{"core.search_ms", "ms"},
	{"core.traverse_self_ms", "ms"},
	{"core.resolve_ms", "ms"},
	{"core.entries", "count"},
	{"core.nodes", "count"},
	{"core.forks", "count"},
	{"core.dominated_ratio", "ratio"},
	{"core.ns_per_entry", "ns"},
	{"core.emitted", "count"},
	{"core.lane_efficiency", "ratio"},
	{"core.families", "count"},
	{"core.gram_cache_hit_ratio", "ratio"},
	{"align.materialise_ms", "ms"},
	{"align.hits", "count"},
	{"align.hits_per_emitted", "ratio"},
	{"store.search_ms", "ms"},
	{"store.front_self_ms", "ms"},
	{"store.gather_self_ms", "ms"},
	{"store.gather_keep_ratio", "ratio"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.generations", "count"},
	{"storegen.append_ms", "ms"},
	{"storegen.delete_ms", "ms"},
	{"storegen.compact_ms", "ms"},
	{"storegen.bytes_written", "B"},
	{"storegen.purged_bytes", "B"},
	{"storegen.write_amp", "ratio"},
	{"storeio.save_ms", "ms"},
	{"storeio.load_ms", "ms"},
	{"storeio.store_bytes", "B"},
	{"bwt.build_ms", "ms"},
	{"bwt.index_bytes_per_residue", "B/residue"},
	{"domination.build_ms", "ms"},
	{"domination.bytes", "B"},
	{"serve.self_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.response_bytes", "B"},
	{"serve.rejected_frac", "ratio"},
	{"bench.generator_lag_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.self_sum_ms", "ms"},
	{"bench.self_sum_frac", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory of this run, removed at exit
	spansDir string // where the traced run writes its spans file
	spec     *spec
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64 // end-to-end metrics (untraced run)
	layer             map[string]float64 // per-layer metrics (traced run); absent = idle layer, 0
	notes             map[string]any     // extra facts printed on the info line
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]any{}}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var runners = map[string]func(*config) (*outcome, error){
	"dna-long":     runLibrary,
	"protein-emit": runLibrary,
	"serve-mix":    runServeMix,
	"store-churn":  runChurn,
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
		workdir string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name (dna-long, protein-emit, serve-mix, store-churn)")
	flag.Int64Var(&cfg.seed, "seed", 42, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "1 = traced replay printing the per-layer metrics")
	flag.StringVar(&workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch and spans directory")
	flag.Parse()
	os.Exit(run(&cfg, seconds, trace, 1, workdir, os.Stdout))
}

// run performs one invocation, printing the info line and the result
// line to stdout, and returns the exit code. scale multiplies every input
// size; main passes 1, the self-tests less (which also skips the
// exactness gates, defined at full size).
func run(cfg *config, seconds float64, trace int, scale float64, workdir string, stdout io.Writer) int {
	specs, err := loadSpecs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runner, ok := runners[cfg.workload]
	if !ok || specs[cfg.workload] == nil || seconds <= 0 || (trace != 0 && trace != 1) || scale <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", sortedKeys(specs))
		return 2
	}
	cfg.spec = specs[cfg.workload]
	cfg.spec.scale = scale
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.spansDir = workdir
	cfg.dir, err = mkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(cfg.dir)

	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
	for k, v := range out.notes {
		info[k] = v
	}
	infoLine, _ := json.Marshal(map[string]any{"perfbench_info": info})
	fmt.Fprintln(stdout, string(infoLine))

	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	res := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", out.failed, out.attempted)
		return 1
	}
	return 0
}

func mkdirTemp(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
