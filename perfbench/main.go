// Command perfbench is the repository benchmark: it runs one named
// workload of oblivious join queries against the public oblivjoin facade,
// with block servers as real cmd/ojoinserver child processes on loopback,
// checks every query against a plaintext reference join, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer cost ledger). The
// last line of standard output is one JSON object with the metrics.
//
// Run it through run.sh from the repository root, which builds the server
// and this command first:
//
//	bash perfbench/run.sh --workload smj-local --seed 1 --seconds 38 --trace 0
//
// README.md describes the workloads, the metrics and the ledger.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Fixed settings of every run.
const (
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median.
	setupRuns = 15
	// countQueries is the number of measured queries per client that
	// traffic is averaged over, and after which server bytes are read.
	countQueries = 32
	// minTimedQueries is the fewest timed queries a run accepts, so that
	// at least ten samples lie above query_ms_p90.
	minTimedQueries = 100
)

// options are the settings of one run. The last four are the constants
// above (and each workload's own scale) except in the smoke test, which
// runs at a tiny scale.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workdir   string
	ledger    string

	suppliers    int
	setups       int
	countQueries int
	minTimed     int
}

func parseOptions(args []string) (*options, error) {
	o := &options{setups: setupRuns, countQueries: countQueries, minTimed: minTimedQueries}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: smj-local, planner-remote-2c, multiway-disk-2shard, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated TPC-H data and query constants")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run that prints the per-layer ledger metrics")
	fs.StringVar(&o.serverBin, "server-bin", "", "path to a built cmd/ojoinserver")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory for server logs and data dirs")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case findWorkload(o.workload) == nil && o.workload != "all":
		return nil, fmt.Errorf("unknown -workload %q", o.workload)
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	case o.seconds <= 0:
		return nil, fmt.Errorf("-seconds must be positive")
	case o.serverBin == "":
		return nil, fmt.Errorf("-server-bin is required")
	case o.workdir == "":
		return nil, fmt.Errorf("-workdir is required")
	}
	o.trace = *trace == 1
	return o, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	failed := false
	for _, name := range names {
		wo := *o
		wo.workload = name
		if !runOne(&wo) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result line; it reports whether
// the run completed with every query correct.
func runOne(o *options) bool {
	// A run, build included, must end within three minutes even if a
	// query hangs.
	limit := time.Duration(o.seconds*float64(time.Second)) + 120*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s; killing servers\n", limit)
		killChildren()
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := run(o, os.Stdout)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return false
	}
	return res.Correct
}

// provenance describes the run; it heads every report and ledger.
type provenance struct {
	Workload     string         `json:"workload"`
	NumCPU       int            `json:"num_cpu"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	Seed         int64          `json:"seed"`
	BlockPayload int            `json:"block_payload"`
	Rows         map[string]int `json:"table_rows"`
	Clients      int            `json:"clients"`
	Servers      int            `json:"servers"`
	FlushPolicy  string         `json:"flush_policy"`
	Traced       bool           `json:"traced"`
	Seconds      float64        `json:"seconds"`
	Setups       int            `json:"setups"`
}

func newProvenance(o *options, w *workload, in *inputs) provenance {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	payload := w.config.BlockPayload
	if payload == 0 {
		payload = 4096 // the facade's default, the paper's B
	}
	rows := make(map[string]int)
	for c, m := range in.rels {
		for name, rel := range m {
			rows[fmt.Sprintf("client%d.%s", c, name)] = rel.Len()
		}
	}
	return provenance{Workload: w.name, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: o.seed, BlockPayload: payload, Rows: rows,
		Clients: w.clients, Servers: w.servers, FlushPolicy: w.flushPolicy(), Traced: o.trace,
		Seconds: o.seconds, Setups: o.setups}
}

// run sets the workload up o.setups times, keeps the last deployment,
// chooses its query windows, warms it, and measures. It prints the human-readable report to out.
func run(o *options, out io.Writer) (*result, error) {
	w := findWorkload(o.workload)
	if o.suppliers == 0 {
		o.suppliers = w.suppliers
	}
	o.ledger = filepath.Join(o.workdir, "ledger-"+w.name+".json")
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	var (
		d                                 *deployment
		setups, setupCPU, starts, sealing []float64
	)
	for i := 0; i < o.setups; i++ {
		if d != nil {
			d.close()
		}
		// Collect the previous deployment's garbage outside the timer.
		runtime.GC()
		var err error
		if d, err = w.setup(o, i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.total.Seconds())
		setupCPU = append(setupCPU, d.cpu.Seconds())
		starts = append(starts, d.serverStart.Seconds())
		sealing = append(sealing, d.seal.Seconds())
	}
	defer d.close()
	if err := d.in.chooseWindows(w, o.seed); err != nil {
		return nil, err
	}

	prov := newProvenance(o, w, d.in)
	hdr, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# provenance %s\n", hdr)

	l := newLoop(w, d, o.countQueries)
	l.warm()
	window := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: make(map[string]metric)}
	if o.trace {
		led, err := traced(o, d, l, window, prov, median(sealing), median(starts))
		if err != nil {
			return nil, err
		}
		res.Metrics = led.Metrics
		report(out, w.name+" (traced)", led.Metrics, ledgerOrder)
		fmt.Fprintf(out, "# ledger written to %s (trace.coverage_frac %.3f; target >= 0.95)\n",
			o.ledger, led.Metrics["trace.coverage_frac"].Value)
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		srv0, err := d.serverCPU()
		if err != nil {
			return nil, err
		}
		cpu0 := clientCPU()
		win := l.run(window, false)
		clientCPUMS := float64(clientCPU()-cpu0) / float64(time.Millisecond)
		srv1, err := d.serverCPU()
		if err != nil {
			return nil, err
		}
		serverCPUMS := float64(srv1-srv0) / float64(time.Millisecond)
		runtime.ReadMemStats(&ms)
		samples := win.samples
		timed, timedDur, timedSteal := win.quiet(o.minTimed)
		if len(timed) < o.minTimed {
			return nil, fmt.Errorf("%d timed queries, fewer than the %d that put ten samples above query_ms_p90", len(timed), o.minTimed)
		}
		lat := make([]float64, len(timed))
		for i, s := range timed {
			lat[i] = float64(s.latency) / float64(time.Millisecond)
		}
		blocks, rounds := traffic(samples, o.countQueries)
		n := float64(len(samples))
		bytes, ok := l.serverBytes()
		if !ok {
			return nil, fmt.Errorf("a client finished fewer than %d queries; server bytes were not read", o.countQueries)
		}
		sort.Float64s(lat)
		m := res.Metrics
		m["cpu_ms_per_query"] = metric{(clientCPUMS + serverCPUMS) / n, "ms"}
		m["setup_s"] = metric{median(setupCPU), "s"}
		m["blocks_per_query"] = metric{blocks, "count"}
		m["rounds_per_query"] = metric{rounds, "count"}
		m["client_alloc_mb_per_query"] = metric{float64(ms.TotalAlloc-alloc0) / 1e6 / n, "MB"}
		m["server_bytes_per_user_byte"] = metric{float64(bytes) / float64(d.userBytes), "ratio"}
		wall := map[string]metric{
			"query_ms_p50":  {quantile(lat, 0.50), "ms"},
			"query_ms_p90":  {quantile(lat, 0.90), "ms"},
			"queries_per_s": {float64(len(timed)) / timedDur.Seconds(), "1/s"},
			"setup_wall_s":  {median(setups), "s"},
			"client_cpu_ms": {clientCPUMS / n, "ms"},
			"server_cpu_ms": {serverCPUMS / n, "ms"},
			"failed_frac":   {float64(l.failed) / float64(l.attempted), "frac"},
		}
		beyond := len(lat) - int(0.9*float64(len(lat))+0.999999)
		fmt.Fprintf(out, "# %s: %d measured queries in %.2f s, %d attempted incl. warm-up, %d failed\n",
			w.name, len(samples), win.elapsed.Seconds(), l.attempted, l.failed)
		fmt.Fprintf(out, "# host: the hypervisor stole %.1f%% of CPU time over the window, %.1f%% in its kept quieter slots;\n",
			100*win.stolen(), 100*timedSteal)
		fmt.Fprintf(out, "#   latency and queries_per_s come from the %d timed queries that ended in those slots (%.0f s; %d samples above p90)\n",
			len(timed), timedDur.Seconds(), beyond)
		report(out, w.name, m, endToEndOrder)
		report(out, "wall clock and CPU split, per query (reported, not in the result line)", wall, wallOrder)
	}
	res.Attempted, res.Failed = l.attempted, l.failed
	res.Correct = l.failed == 0
	if l.firstErr != "" {
		fmt.Fprintf(out, "# FAILED: %s\n", l.firstErr)
	}
	return res, nil
}

// endToEndOrder lists the metrics of an untraced run's result line, in
// report order. Its times are CPU times, which the hypervisor's stealing
// does not lengthen; README.md says why.
var endToEndOrder = []string{"cpu_ms_per_query", "setup_s",
	"blocks_per_query", "rounds_per_query", "client_alloc_mb_per_query", "server_bytes_per_user_byte"}

// wallOrder lists the figures an untraced run prints after the result
// metrics: wall-clock latency, throughput and set-up time, the CPU time
// split between client and servers, and failed_frac, which the result line
// carries as attempted/failed.
var wallOrder = []string{"query_ms_p50", "query_ms_p90", "queries_per_s", "setup_wall_s",
	"client_cpu_ms", "server_cpu_ms", "failed_frac"}

// traffic returns the mean blocks and rounds per query over each client's
// first k measured queries (all of them if it ran fewer). Query constants
// are a function of the seed, so these counts repeat exactly for a seed
// however many queries the window fits.
func traffic(samples []sample, k int) (blocks, rounds float64) {
	seen := make(map[int]int)
	n := 0
	for _, s := range samples {
		if seen[s.client] >= k {
			continue
		}
		seen[s.client]++
		blocks += float64(s.blocks)
		rounds += float64(s.rounds)
		n++
	}
	return blocks / float64(n), rounds / float64(n)
}

func report(out io.Writer, title string, m map[string]metric, order []string) {
	if title != "" {
		fmt.Fprintf(out, "# %s\n", title)
	}
	for _, name := range order {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// cpuTimes are the aggregate "cpu" counters of /proc/stat; nil where
// unavailable.
type cpuTimes []int64

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	t := make(cpuTimes, len(f)-1)
	for i := range t {
		t[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return t
}

// stolenSince returns the share of CPU time the hypervisor stole (the
// eighth counter) between before and t, or -1 if either reading is missing.
func (t cpuTimes) stolenSince(before cpuTimes) float64 {
	if t == nil || len(before) != len(t) {
		return -1
	}
	var total int64
	for i := range t {
		total += t[i] - before[i]
	}
	if total <= 0 {
		return -1
	}
	return float64(t[7]-before[7]) / float64(total)
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
