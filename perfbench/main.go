// Command perfbench is the repository's benchmark. It launches the real
// simserver and simrouter binaries on loopback, drives one workload
// through the router from this one generator process, checks every
// response, and prints every metric by name and unit; the last line of
// standard output is the JSON result. A traced run (--trace 1) times the
// calls into each layer's public functions from outside the program and
// reports the per-layer metrics instead. See README.md.
//
// Run it through run.sh, which builds the three binaries first:
//
//	bash perfbench/run.sh --workload interactive --seed 7 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
	"riscvsim/sim"
)

// options configures one benchmark run.
type options struct {
	root, bin, work string
	workload        string
	seed            int64
	seconds         int
	trace           bool
	// rt replaces the generator's transport (the self-test plants
	// faults through it).
	rt  http.RoundTripper
	man *manifest
}

// A run sets the cluster up setupBefore times before the window (the last
// set-up is the one measured) and, untraced, setupAfter times after it;
// setup_s is the median of all of them. The host's speed changes in
// phases of tens of seconds, so set-ups taken on both sides of the window
// sample more than one phase.
const (
	setupBefore = 3
	setupAfter  = 3
)

// lateLimit is the generator lateness (p99) past which an open-loop run
// is invalid: the generator did not keep its schedule, so the offered
// load was not Table I's.
const lateLimit = 100 * time.Millisecond

// workloadNames lists every workload newWorkload builds. BENCHMARK.json
// names the ones that hold steady enough to gate; the self-test runs all.
var workloadNames = []string{"interactive", "batch-detailed", "c-build", "ff-long"}

func newWorkload(name string, seed int64, root string) (benchWorkload, error) {
	switch name {
	case "interactive":
		return newInteractive(seed), nil
	case "batch-detailed":
		return newBatchDetailed(seed, root)
	case "c-build":
		return newCBuild(seed), nil
	case "ff-long":
		return newFFLong(seed, root)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: interactive, batch-detailed, c-build or ff-long")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 0, "length of the measured window (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: report the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout the binaries were built from")
	flag.StringVar(&o.bin, "bin", "", "directory holding simserver and simrouter")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "directory for run state and results")
	flag.BoolVar(&selftest, "selftest", false, "smoke-run every workload and check that planted wrong responses count as failures")
	flag.Parse()
	o.trace = traceFlag == 1

	var err error
	if o.man, err = loadManifest(o.root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.seconds == 0 {
		o.seconds = o.man.RunSeconds
	}
	if selftest {
		return runSelftest(o)
	}
	if o.bin == "" || o.seconds < 2 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --bin, --seconds >= 2 and --trace 0|1")
		return 2
	}
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(o)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is what one run reports.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"-"`
	extra     map[string]float64 // printed, not in the result object
	failures  []string
	invalid   string
}

// bench sets the cluster up, runs the workload over the window, checks
// the outputs and computes the metrics.
func bench(o options) (*result, error) {
	runDir := filepath.Join(o.work, "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	var (
		wl     benchWorkload
		c      *cluster
		e      *env
		setups []float64
	)
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	// setUp replaces c with a fresh cluster, warmed up for wl.
	setUp := func() error {
		if c != nil {
			c.stop()
			c = nil
		}
		var err error
		if wl, err = newWorkload(o.workload, o.seed, o.root); err != nil {
			return err
		}
		t0 := time.Now()
		if c, err = startCluster(o.bin, filepath.Join(runDir, fmt.Sprint(len(setups)))); err != nil {
			return err
		}
		e = &env{seed: o.seed, c: c, cl: newClient(o.rt)}
		if err := wl.warm(e); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < setupBefore; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	w := &window{recs: [2]*recorder{{}, {}}}
	var snap0, snapSplit, snapEnd snapshot
	if err := snap0.take(c); err != nil {
		return nil, err
	}
	if p, ok := o.rt.(*plantTransport); ok {
		p.armed.Store(true)
	}
	w.start = time.Now()
	w.end = w.start.Add(time.Duration(o.seconds) * time.Second)
	w.split = w.end
	splitDone := make(chan error, 1)
	if o.trace {
		w.split = w.start.Add(time.Duration(o.seconds) * time.Second / 2)
		tr, err := newTracer(e, filepath.Join(runDir, "trace-store"), w.recs[1].fail)
		if err != nil {
			return nil, err
		}
		w.tr = tr
		go func() {
			time.Sleep(time.Until(w.split))
			splitDone <- snapSplit.take(c)
		}()
	}
	wl.drive(e, w)
	if err := snapEnd.take(c); err != nil {
		return nil, err
	}
	if w.tr != nil {
		if err := <-splitDone; err != nil {
			return nil, err
		}
	}
	wl.verify(w.recs[0])

	res := &result{extra: map[string]float64{}}
	a := w.recs[0]
	if len(a.lat) == 0 {
		return nil, errors.New("no request completed in the measured window")
	}
	if in, open := wl.(*interactive); open {
		if p99 := percentile(a.late, 99); p99 > ms(lateLimit) {
			res.invalid = fmt.Sprintf("generator lateness p99 %.2f ms exceeds %v: the generator did not keep its schedule", p99, lateLimit)
		}
		if late, sent := in.behind(); late*100 > sent {
			res.invalid = fmt.Sprintf("the open loop fell behind its schedule: %d of %d requests sent over %v late", late, sent, behindLimit)
		}
	}
	all := map[string]float64{}
	if o.trace {
		if err := traced(e, wl, w, snap0, snapSplit, res, all); err != nil {
			return nil, err
		}
	} else {
		// The window's work spans from its start to the last reply.
		elapsed := a.lastDone.Sub(w.start).Seconds()
		done := float64(len(a.lat))
		rss, err := c.serverPeakRSSMB()
		if err != nil {
			return nil, err
		}
		for i := 0; i < setupAfter; i++ {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		all["setup_s"] = median(setups)
		all["req_per_s"] = done / elapsed
		all["cpu_ms_per_req"] = float64(snapEnd.cpu-snap0.cpu) * 1000 / clockTick / done
		all["sim_cycles_per_s"] = float64(a.cycles) / elapsed
		all["server_rss_mb"] = rss
		res.extra["requests"] = done
		res.extra["req_p50_ms"] = percentile(a.lat, 50)
		res.extra["req_p99_ms"] = percentile(a.lat, 99)
		res.extra["gen.late_p99_ms"] = percentile(a.late, 99)
	}
	// Report exactly the metrics BENCHMARK.json names for this mode.
	res.Metrics = map[string]float64{}
	for _, d := range o.man.metrics(o.trace) {
		v, ok := all[d.Name]
		if !ok {
			return nil, fmt.Errorf("the run produced no %s", d.Name)
		}
		res.Metrics[d.Name] = v
	}
	for _, r := range w.recs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.failures = append(res.failures, r.failures...)
	}
	res.extra["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && res.invalid == ""
	return res, nil
}

// snapshot is the resource counters at one instant of the window.
type snapshot struct {
	cpu    int64 // simserver + simrouter CPU ticks
	genCPU time.Duration
	m      api.Metrics
}

func (s *snapshot) take(c *cluster) error {
	var err error
	if s.cpu, err = c.cpuTicks(); err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	s.genCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s.m, err = c.serverMetrics()
	return err
}

// traced computes the per-layer metrics into out: tracer sweeps from the
// traced phase; server self-instrumentation deltas, generator cost and
// lateness from the untraced phase; and the reference request's exact
// counts.
func traced(e *env, wl benchWorkload, w *window, s0, sSplit snapshot, res *result, out map[string]float64) error {
	if err := w.tr.results(out); err != nil {
		return err
	}
	a, b := w.recs[0], w.recs[1]
	// Server self-instrumentation over the untraced phase, which the
	// tracer's probe requests do not dilute.
	dm := func(f func(api.Metrics) uint64) float64 { return float64(f(sSplit.m) - f(s0.m)) }
	total := dm(func(m api.Metrics) uint64 { return m.TotalNanos })
	out["server.handle_ms"] = total / dm(func(m api.Metrics) uint64 { return m.Requests }) / 1e6
	out["server.json_share"] = dm(func(m api.Metrics) uint64 { return m.JSONNanos }) / total
	out["server.sim_share"] = dm(func(m api.Metrics) uint64 { return m.SimNanos }) / total
	out["server.shed"] = dm(func(m api.Metrics) uint64 { return m.Shed })
	out["build.repeat_frac"] = float64(a.repeats+b.repeats) / float64(max(1, a.builds+b.builds))
	out["gen.cpu_ms_per_req"] = ms(sSplit.genCPU-s0.genCPU) / float64(len(a.lat))
	out["gen.late_p99_ms"] = percentile(a.late, 99)
	out["trace.overhead_frac"] = median(b.svc)/median(a.svc) - 1

	// model: the reference request on the server and in-process.
	ref := wl.reference()
	body, err := json.Marshal(&ref)
	if err != nil {
		return err
	}
	resp, err := post(e.cl, e.c.routerURL+simulatePath, body)
	if err != nil {
		return fmt.Errorf("reference request: %w", err)
	}
	var got struct {
		Cycles uint64 `json:"cycles"`
		Stats  struct {
			Committed uint64 `json:"committedInstructions"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("reference response: %w", err)
	}
	m, err := buildReference(ref)
	if err != nil {
		return err
	}
	out["model.cycles"] = float64(m.Cycle())
	out["model.committed"] = float64(m.Committed())
	if got.Cycles != m.Cycle() || got.Stats.Committed != m.Committed() {
		b.fail("reference request: server %d cycles / %d committed, in-process %d / %d",
			got.Cycles, got.Stats.Committed, m.Cycle(), m.Committed())
	}
	res.extra["trace.samples"] = out["trace.samples"]
	res.extra["requests"] = float64(len(a.lat) + len(b.lat))
	return nil
}

// buildReference runs a simulate request in-process with the server's
// semantics and returns the finished machine.
func buildReference(r api.SimulateRequest) (*sim.Machine, error) {
	m, aerr := server.BuildMachine(&r)
	if aerr != nil {
		return nil, fmt.Errorf("reference build: %v", aerr)
	}
	if r.FastForward {
		m.SetEngineMode(sim.EngineFastForward)
	}
	steps := r.Steps
	if steps == 0 {
		steps = fastForwardCap
	}
	m.Run(steps)
	return m, nil
}

// print writes the human-readable report, records it with the run
// environment under the work directory, and ends with the result object.
func (r *result) print(o options) {
	env := runEnv(o)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	units := o.man.units()
	metrics := map[string]any{}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, r.Metrics[n], units[n])
		metrics[n] = map[string]any{"value": r.Metrics[n], "unit": units[n]}
	}
	for _, n := range []string{"requests", "fail_frac", "req_p50_ms", "req_p99_ms", "gen.late_p99_ms", "trace.samples"} {
		if v, ok := r.extra[n]; ok {
			fmt.Printf("info   %-28s %14.6g\n", n, v)
		}
	}
	for _, f := range r.failures {
		fmt.Printf("failure %s\n", f)
	}
	if r.invalid != "" {
		fmt.Printf("invalid %s\n", r.invalid)
	}
	out := map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
	line, _ := json.Marshal(out)
	record := map[string]any{"env": env, "result": out, "failures": r.failures, "invalid": r.invalid, "info": r.extra}
	if rec, err := json.MarshalIndent(record, "", "  "); err == nil {
		dir := filepath.Join(o.work, "results")
		if os.MkdirAll(dir, 0o755) == nil {
			name := fmt.Sprintf("%s-seed%d-trace%v-%s.json", o.workload, o.seed, o.trace, time.Now().UTC().Format("20060102T150405"))
			if err := os.WriteFile(filepath.Join(dir, name), rec, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: recording result:", err)
			}
		}
	}
	fmt.Println(string(line))
}

// runEnv describes where and on what a result was measured.
func runEnv(o options) map[string]any {
	load, _ := os.ReadFile("/proc/loadavg")
	return map[string]any{
		"commit":     sourceDigest(o.root),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"loadavg":    strings.TrimSpace(string(load)),
		"seed":       o.seed,
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
}

// sourceDigest identifies the code measured: the checkout is not always
// a git repository, so it hashes go.mod and every .go file under root
// (outside the build directory).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
