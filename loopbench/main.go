package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind an exit code, so deferred profile writes finish.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 25, "timed-window seconds to measure, summed over rounds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and pprof profiles")
	out := fs.String("out", ".bench_build", "directory for reports, span dumps and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := workloadParams(*workload, *seed, false)
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 2
	}
	rep, err := benchmark(p, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Result.Correct {
		for _, r := range rep.Rounds {
			for _, g := range r.Gate {
				fmt.Fprintln(stderr, "loopbench: correctness gate:", g)
			}
		}
		return 1
	}
	return 0
}

// envStamp records what a result was measured on.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func stampEnv() envStamp {
	return envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run measured; the last line of standard
// output is its Result, and the whole report is saved under -out.
type report struct {
	Env    envStamp       `json:"env"`
	Params params         `json:"params"`
	Traced bool           `json:"traced"`
	Rounds []*roundResult `json:"rounds"`
	// FreshSamples is how many split freshness samples the freshness
	// percentiles rest on.
	FreshSamples int `json:"freshness_samples"`
	// Excluded counts untraced windows left out of the end-to-end
	// medians for host CPU steal above stealLimit.
	Excluded int `json:"windows_excluded_for_steal"`
	// SelfRanking orders the work layers by median self time per traced
	// window.
	SelfRanking []string `json:"self_time_ranking,omitempty"`
	Result      result   `json:"result"`
}

// benchmark runs set-ups of workload p, each followed by its timed
// windows, until the windows add up to seconds and at least p.MinRounds
// set-ups ran. A traced run alternates untraced and traced set-ups.
func benchmark(p params, seconds time.Duration, traced bool, out string) (*report, error) {
	rep := &report{Env: stampEnv(), Params: p, Traced: traced}
	var tr *tracer
	stopProfile := func() error { return nil }
	if traced {
		tr = newTracer()
		var err error
		if stopProfile, err = startProfiles(out, p); err != nil {
			return nil, err
		}
	}
	prof, err := datagen.ProfileByName(p.Profile)
	if err != nil {
		return nil, err
	}
	want := truth(p, prof.Scale(p.Scale, 1, p.rowsPerTenant()))

	// A run stops starting set-ups after two minutes, so that it ends
	// within three.
	const budget = 120 * time.Second
	minBuilds := p.MinRounds
	if traced {
		// At least two of each kind, as many set-ups as an untraced run.
		minBuilds = 2 * ((p.MinRounds + 1) / 2)
	}
	start := time.Now()
	var windows time.Duration
	var ref []*tensor.ContentSum
	for i := 0; ; i++ {
		var rtr *tracer
		if traced && i%2 == 1 {
			rtr = tr
		}
		rs, err := runBuild(p, i, rtr, want, ref)
		if err != nil {
			stopProfile()
			return nil, fmt.Errorf("%s set-up %d: %w", p.Workload, i, err)
		}
		for _, r := range rs {
			if ref == nil {
				ref = r.sums
			}
			rep.Rounds = append(rep.Rounds, r)
			windows += r.Window
		}
		if (windows >= seconds && i+1 >= minBuilds) || time.Since(start) > budget {
			break
		}
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	rep.summarize()
	if err := rep.save(out, tr); err != nil {
		return nil, err
	}
	return rep, nil
}

// stealLimit is the host CPU steal share above which a window counts as
// disturbed by the machine's neighbours.
const stealLimit = 0.02

// summarize folds the rounds into the result line: end-to-end metrics
// (medians over windows; freshness percentiles over every pooled split
// sample) for an untraced run, per-layer metrics (medians over the
// windows that produced each) for a traced one.
func (rep *report) summarize() {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var tracedRate, plainRate []float64
	var plain []*roundResult
	layer := map[string][]float64{}
	for _, r := range rep.Rounds {
		res.Attempted += r.Expected
		res.Failed += r.Failed
		if len(r.Gate) > 0 {
			res.Correct = false
		}
		if r.Traced {
			tracedRate = append(tracedRate, r.rowsPerSec())
		} else {
			plainRate = append(plainRate, r.rowsPerSec())
			plain = append(plain, r)
		}
		for k, v := range r.Layer {
			layer[k] = append(layer[k], v)
		}
	}
	// Windows during which the hypervisor stole more than stealLimit of
	// the host's CPU measure the neighbours, not the program: they are
	// left out of the end-to-end medians, unless that would leave fewer
	// than a third of the windows.
	clean := plain[:0:0]
	for _, r := range plain {
		if r.Steal <= stealLimit {
			clean = append(clean, r)
		}
	}
	if 3*len(clean) < len(plain) {
		clean = plain
	}
	rep.Excluded = len(plain) - len(clean)
	var rowsPerSec, cpu, alloc, retained, setup, fresh []float64
	for _, r := range clean {
		rowsPerSec = append(rowsPerSec, r.rowsPerSec())
		cpu = append(cpu, ratio(float64(r.CPU)/1e3, float64(r.Rows)))
		alloc = append(alloc, ratio(float64(r.Alloc)/1024, float64(r.Rows)))
		retained = append(retained, float64(r.Retained)/(1<<20))
		fresh = append(fresh, durationsMs(r.Fresh)...)
	}
	for _, r := range plain {
		if r.HasSetup {
			setup = append(setup, r.Setup.Seconds())
		}
	}
	rep.FreshSamples = len(fresh)
	if !rep.Traced {
		vals := map[string]float64{
			"rows_per_s":       median(rowsPerSec),
			"freshness_p50_ms": quantile(fresh, 0.5),
			"freshness_p90_ms": quantile(fresh, 0.9),
			"cpu_us_per_row":   median(cpu),
			"alloc_kb_per_row": median(alloc),
			"retained_heap_mb": median(retained),
			"setup_s":          median(setup),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
	} else {
		layer["trace.overhead_frac"] = []float64{1 - ratio(median(tracedRate), median(plainRate))}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: median(layer[d.Name]), Unit: d.Unit}
		}
		self := map[string]float64{}
		for _, l := range workLayers {
			self[l] = res.Metrics["self_ms."+l].Value
		}
		rep.SelfRanking = layerRanking(self)
	}
	rep.Result = res
}

// print writes the human-readable summary lines and, last, the result.
func (rep *report) print(w io.Writer) {
	env, _ := json.Marshal(rep.Env)
	params, _ := json.Marshal(rep.Params)
	fmt.Fprintf(w, "# env %s\n# params %s\n", env, params)
	for i, r := range rep.Rounds {
		kind := "untraced"
		if r.Traced {
			kind = "traced"
		}
		setup := "-"
		if r.HasSetup {
			setup = fmt.Sprintf("%.3fs", r.Setup.Seconds())
		}
		fmt.Fprintf(w, "# window %d %s: setup %s window %.3fs rows %d (%.0f rows/s) host steal %.1f%% gate %v\n",
			i, kind, setup, r.Window.Seconds(), r.Rows, r.rowsPerSec(), 100*r.Steal, r.Gate)
	}
	if !rep.Traced {
		fmt.Fprintf(w, "# freshness percentiles rest on %d split samples; %d windows left out for host CPU steal above %.0f%%\n",
			rep.FreshSamples, rep.Excluded, 100*stealLimit)
	}
	if len(rep.SelfRanking) > 0 {
		ms := func(l string) float64 { return rep.Result.Metrics["self_ms."+l].Value }
		fmt.Fprintf(w, "# layers by self time per traced window:\n")
		for i, l := range rep.SelfRanking {
			fmt.Fprintf(w, "#   %2d. %-14s %10.2f ms\n", i+1, l, ms(l))
		}
		fmt.Fprintf(w, "# trainer blocked in Next %.2f ms, loops asleep %.2f ms, checks %.2f ms, unattributed %.1f%% of loop time, tracing overhead %.1f%% of rows/s\n",
			ms("trainer.wait"), ms("wait"), ms("check"),
			100*rep.Result.Metrics["trace.unattributed_frac"].Value, 100*rep.Result.Metrics["trace.overhead_frac"].Value)
	}
	line, _ := json.Marshal(rep.Result)
	fmt.Fprintf(w, "%s\n", line)
}

// save writes the full report (and, traced, the span dump) under out.
func (rep *report) save(out string, tr *tracer) error {
	if out == "" {
		return nil
	}
	dir := filepath.Join(out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d", rep.Params.Workload, rep.Params.Seed)
	name := base + "-untraced.json"
	if rep.Traced {
		name = base + "-traced.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	tdir := filepath.Join(out, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	return tr.dump(filepath.Join(tdir, base+".spans.jsonl"))
}

// startProfiles starts a CPU profile of the traced run and returns the
// function that stops it and writes the allocation profile beside it.
func startProfiles(out string, p params) (func() error, error) {
	if out == "" {
		return func() error { return nil }, nil
	}
	dir := filepath.Join(out, "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", p.Workload, p.Seed))
	cpuFile, err := os.Create(base + "-cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		cpuFile.Close()
		return nil, err
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return err
		}
		f, err := os.Create(base + "-allocs.pprof")
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
