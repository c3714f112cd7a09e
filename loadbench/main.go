// Command loadbench is the repository benchmark: it assembles the
// shipped deployment — dspd (durable FileStore with fsync, block cache,
// dsp.Server) and gatewayd (dsp.Pool, block cache, card fleet,
// gateway.Server) — in one process over loopback TCP, drives one
// workload against it for a fixed time, checks every completed query
// against core.Filter on the plaintext, and prints the metrics.
//
// Usage:
//
//	loadbench --workload folder-view|select-cold|republish-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload with timing decorators around the layer calls
// and reports per-layer metrics plus the tracing overhead, writing the
// spans to the work directory. Every report line before the last starts
// with '#'; the last line is one JSON object. run.sh builds and runs it.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spec is one workload.
type spec struct {
	name     string
	loop     string
	subjects []subject
	// folders of patients×visits each; folders are split evenly between
	// the clients, so no two clients ever read one folder at once.
	folders, patients, visits int
	gatewayCache              int64 // gatewayd's block cache budget
	readerRate                float64
	editPct                   float64 // republish-mix: share of a folder's visits one commit edits
}

var specs = []*spec{
	// Full views of a corpus that fits gatewayd's default cache: the card,
	// the assembler, XML rendering and the gateway response do the work
	// while dsp serves cache hits.
	{
		name: "folder-view", loop: "closed loop, one gatewayd connection per client",
		subjects: permissive, folders: 32, patients: 40, visits: 3,
		gatewayCache: gatewayCacheBytes,
	},
	// Selective queries over a corpus (≈4.5 MiB stored) at least four
	// times gatewayd's cache, set below the default so the corpus stays
	// small enough to publish seven times per run: most block reads miss
	// to dspd's mapped tier.
	{
		name: "select-cold", loop: "closed loop, one gatewayd connection per client",
		subjects: restrictive, folders: 128, patients: 40, visits: 3,
		gatewayCache: 1 << 20,
	},
	// Back-to-back delta commits beside scheduled reads of the same
	// folders: WAL, group commit, checkpoints, version refresh and cache
	// invalidation together, and the failure share of reads meanwhile.
	{
		name: "republish-mix", loop: "closed-loop publisher on its own dsp.Pool + one open-loop gatewayd reader",
		subjects: permissive, folders: 4, patients: 40, visits: 3,
		gatewayCache: gatewayCacheBytes, readerRate: 40, editPct: 3,
	},
}

func specByName(name string) (*spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return nil, false
}

// config is one run.
type config struct {
	spec    *spec
	seed    int64
	seconds float64
	trace   bool
	workdir string
	clients int
	setups  int // deployments built; the median build time is setup_s
	limit   int // > 0: each client sends exactly this many queries, untimed (tests)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "folder-view", "workload: folder-view, select-cold or republish-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "1: traced per-layer run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "loadbench-run"), "directory for stores and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "loadbench: unknown workload %q\n", *name)
		return 2
	}
	// One client: on a 2-vCPU VM two clients saturating both CPUs spread
	// query_qps across runs about twice as wide as one does.
	cfg := config{spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir,
		clients: 1, setups: 7}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "loadbench: oracle mismatch: %s\n", res.firstBad)
		return 1
	}
	return 0
}

// execute runs one workload in a fresh work directory.
func execute(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := newCorpus(cfg.seed, cfg.spec)
	if err != nil {
		return nil, err
	}
	if cfg.spec.readerRate > 0 {
		return runMix(cfg, c, dir)
	}
	return runRead(cfg, c, dir)
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	samples    int
}

// result is a run's report.
type result struct {
	env       string
	notes     []string
	metrics   []metric
	json      []string // names of the metrics in the final JSON line
	firstFail string   // the first failed query or commit
	firstBad  string   // the first view that differs from the oracle

	Correct           bool
	Attempted, Failed int
}

func (r *result) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, value, samples})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the report: '#' lines, then the JSON result line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "# env %s\n", r.env)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# first failure: %s\n", cmp.Or(r.firstFail, "none"))
	byName := make(map[string]metric)
	for _, m := range r.metrics {
		byName[m.name] = m
		fmt.Fprintf(w, "# metric %-32s %14.6g %-6s samples=%d failed=%d attempted=%d\n",
			m.name, m.value, m.unit, m.samples, r.Failed, r.Attempted)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]jm)}
	for _, name := range r.json {
		if m, ok := byName[name]; ok {
			out.Metrics[name] = jm{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// envLine records where a run happened.
func envLine() string {
	return fmt.Sprintf("go=%s goos=%s goarch=%s gomaxprocs=%d nproc=%d kernel=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), kernelRelease())
}

func secondsOf(d float64) time.Duration { return time.Duration(d * float64(time.Second)) }
