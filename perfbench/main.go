// Command perfbench is the repository's same-host benchmark. It runs one
// workload (paper-vim, fleet-affinity or serve-deep) for a fixed number of
// host seconds, checks every output against the golden models, and prints
// the end-to-end metrics (untraced) or the per-layer metrics (traced) by
// name with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-vim --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer-to-metric predictions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/sim"
)

const (
	// Set-up runs at least setupRounds times and until it has taken
	// setupSeconds in all, so a cheap set-up's median is not a cold one;
	// setup_s is the median round.
	setupRounds  = 5
	setupSeconds = 1.0
	// minReps keeps the medians meaningful when reps outlast --seconds.
	minReps = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the process exit code: 0 when
// every output checked out, 1 when some did (the result line still
// prints, with correct false), 2 when the run could not start or finish.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", paperVIM, "workload: "+strings.Join(allWorkloads, ", "))
	seed := fs.Int64("seed", 1, "input seed; a claim is re-checked on a held-out seed")
	seconds := fs.Float64("seconds", 25, "host seconds of timed reps")
	traced := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the CPU profile and span trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload, --seed, --seconds > 0 and --trace 0|1, no other arguments")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	host := fingerprint()
	fmt.Fprintf(stdout, "host %s\n", host)

	b := &bench{w: w, log: stdout}
	var res map[string]float64
	if *traced == 1 {
		base := filepath.Join(*out, fmt.Sprintf("perfbench-%s-seed%d", *name, *seed))
		res, err = b.traced(*seed, *seconds, base, host)
	} else {
		res, err = b.untraced(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if b.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", b.firstErr)
	}
	return report(stdout, stderr, b, res, *traced == 1)
}

// report prints every metric by name with its unit, then the result line.
func report(stdout, stderr io.Writer, b *bench, res map[string]float64, traced bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	emit := func(name, unit string) {
		v := res[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		vals[name] = value{v, unit}
		fmt.Fprintf(stdout, "metric %-32s %14.6g %s\n", name, v, unit)
	}
	if traced {
		for _, m := range layers {
			emit(m.Name, m.Unit)
		}
	} else {
		for _, m := range endToEnd {
			emit(m.Name, m.Unit)
		}
	}
	errRate := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Fprintf(stdout, "reps %d timed, %d attempted jobs, %d failed, error_rate %g\n",
		b.timedReps, b.attempted, b.failed, errRate)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, vals})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// bench accumulates the checks of every rep of one run.
type bench struct {
	w                 workload
	log               io.Writer
	inputs            int
	nextRep           int
	timedReps         int
	attempted, failed int
	firstErr          error

	// The first good rep of each input and its simulated report digest:
	// the reference every later rep of that input must match, and the
	// source of the simulated metrics.
	refs    []repOut
	digests []string
}

// do runs one rep and checks it: its own checks, then its simulated
// report against the first good rep of the same input. It returns the
// rep's host time and the bytes allocated and GC cycles completed during
// the rep itself.
func (b *bench) do(tr *tracer) (repOut, time.Duration, [2]float64) {
	id := b.nextRep
	b.nextRep++
	k := id % b.inputs
	rt0 := readRuntime()
	t := now()
	o := b.w.rep(tr, id)
	d := now().Sub(t)
	rt1 := readRuntime()
	if o.failed == 0 {
		digest, err := digestOf(o.report)
		switch {
		case err != nil:
			o.fail(fmt.Errorf("rep %d: digesting the report: %w", id, err))
		case b.digests[k] == "":
			b.digests[k], b.refs[k] = digest, o
		case digest != b.digests[k]:
			o.fail(fmt.Errorf("rep %d: simulated report differs from the first of input %d", id, k))
		}
	}
	b.attempted += o.attempted
	b.failed += o.failed
	if o.err != nil && b.firstErr == nil {
		b.firstErr = o.err
	}
	return o, d, [2]float64{rt1[0] - rt0[0], rt1[1] - rt0[1]}
}

func digestOf(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// setup builds the inputs and runs one untimed warm-up rep, over and over
// (see setupRounds), and returns the median round in seconds.
func (b *bench) setup(seed int64, tr *tracer) (float64, error) {
	var secs []float64
	for total := 0.0; len(secs) < setupRounds || total < setupSeconds; total += secs[len(secs)-1] {
		t := now()
		inputs, err := b.w.setup(seed, tr)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if b.inputs == 0 {
			b.inputs = inputs
			b.refs, b.digests = make([]repOut, inputs), make([]string, inputs)
		}
		b.do(nil)
		secs = append(secs, now().Sub(t).Seconds())
	}
	return median(secs), nil
}

// phase is one timed stretch of reps and what the host spent on it.
type phase struct {
	repSec              []float64
	attempted           int
	completed           int
	c                   counts
	allocBytes, gcs     float64
	pauseNs, peakHeap   float64
	fleetCPU, fleetWall time.Duration
}

// timed runs whole cycles over the inputs, from a freshly collected heap,
// for at least the given host seconds and minReps reps.
func (b *bench) timed(seconds float64, tr *tracer) phase {
	var p phase
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopHeap := sampleHeap()
	start := now()
	for len(p.repSec) < minReps || len(p.repSec)%b.inputs != 0 || now().Sub(start).Seconds() < seconds {
		o, d, rt := b.do(tr)
		p.repSec = append(p.repSec, d.Seconds())
		p.allocBytes += rt[0]
		p.gcs += rt[1]
		p.attempted += o.attempted
		p.completed += o.completed
		p.c.add(o.c)
		p.fleetCPU += o.fleetCPU
		p.fleetWall += o.fleetWall
	}
	p.peakHeap = stopHeap()
	runtime.ReadMemStats(&ms1)
	p.pauseNs = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	b.timedReps += len(p.repSec)
	return p
}

// crossCheck runs one rep under the other sim scheduler; its simulated
// report must match the first of its input's.
func (b *bench) crossCheck() {
	prev := sim.SetDefaultScheduler(sim.Lockstep)
	if prev == sim.Lockstep {
		sim.SetDefaultScheduler(sim.EventDriven)
	}
	b.do(nil)
	sim.SetDefaultScheduler(prev)
}

// untraced is the end-to-end run.
func (b *bench) untraced(seed int64, seconds float64) (map[string]float64, error) {
	setupS, err := b.setup(seed, nil)
	if err != nil {
		return nil, err
	}
	p := b.timed(seconds, nil)
	b.crossCheck()
	repS := median(p.repSec)
	res := b.simulated()
	res["jobs_per_s"] = float64(p.completed) / float64(len(p.repSec)) / repS
	res["rep_ms_p50"] = repS * 1e3
	res["sim_mcycles_per_s"] = b.meanCycles() / 1e6 / repS
	res["peak_heap_mb"] = p.peakHeap / 1e6
	res["alloc_kb_per_job"] = p.allocBytes / 1e3 / float64(max(p.completed, 1))
	res["setup_s"] = setupS
	return res, nil
}

// simulated pools the simulated metrics over the reference rep of every
// input: they repeat exactly on every rep and every run with this seed.
func (b *bench) simulated() map[string]float64 {
	var lat []float64
	good, span := 0.0, 0.0
	for _, r := range b.refs {
		lat = append(lat, r.latMs...)
		good += r.goodJobs
		span += r.spanS
	}
	sum := 0.0
	for _, l := range lat {
		sum += l
	}
	return map[string]float64{
		"sim_ms_per_job":     sum / float64(max(len(lat), 1)),
		"sim_goodput_rps":    good / span,
		"sim_p99_latency_ms": percentile(lat, 99),
	}
}

// meanCycles is the simulated cycles per rep, averaged over the inputs.
func (b *bench) meanCycles() float64 {
	sum := 0.0
	for _, r := range b.refs {
		sum += r.hwCycles
	}
	return sum / float64(len(b.refs))
}

// traced is the per-layer run: half the time untraced, half with spans,
// the telemetry meter and the CPU profiler on.
func (b *bench) traced(seed int64, seconds float64, base string, host string) (map[string]float64, error) {
	tr := newTracer()
	if _, err := b.setup(seed, tr); err != nil {
		return nil, err
	}
	plain := b.timed(seconds/2, nil)

	profile := base + ".cpu.pprof"
	if err := os.MkdirAll(filepath.Dir(profile), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t := b.timed(seconds/2, tr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	b.crossCheck()

	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	traceFile := base + ".trace.json"
	if err := tr.write(traceFile, host); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "profile %s\ntrace %s\n", profile, traceFile)

	res := map[string]float64{}
	for _, l := range cpuBuckets {
		res[l+".cpu_share"] = shares[l]
	}
	c := t.c
	jobs := float64(max(t.completed, 1))
	reps := float64(len(t.repSec))
	repNs := median(plain.repSec) * 1e9
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res["sim.ns_per_edge"] = ratio(repNs, c.edgesDelivered/reps)
	res["sim.edges_per_job"] = c.edgesDelivered / jobs
	res["sim.skip_ratio"] = ratio(c.edgesSkipped, c.edgesDelivered+c.edgesSkipped)
	res["core.ns_per_hw_cycle"] = ratio(repNs, b.meanCycles())
	res["repro.fpga_load_ms"] = median(tr.durationsMs("repro.FPGALoad"))
	res["repro.fpga_map_ms"] = median(tr.durationsMs("repro.FPGAMapObject"))
	res["repro.fpga_execute_ms"] = median(tr.durationsMs("repro.FPGAExecute"))
	res["imu.accesses_per_job"] = c.imuAccesses / jobs
	res["imu.hit_ratio"] = ratio(c.imuHits, c.imuHits+c.imuFaults)
	res["imu.fault_cycles_per_job"] = c.imuFaultCycles / jobs
	res["vim.faults_per_job"] = c.vimFaults / jobs
	res["vim.writebacks_per_job"] = c.vimWritebacks / jobs
	res["vim.bytes_per_job"] = c.vimBytes / jobs
	res["vim.loads_elided_per_job"] = c.vimLoadsElided / jobs
	res["rcsched.serve_ms"] = median(tr.durationsMs("rcsched.Serve"))
	res["rcsched.reconfigs_per_job"] = ratio(c.reconfigs, c.admitted)
	res["rcsched.resident_dispatch_ratio"] = ratio(c.residentDispatches, c.admitted)
	res["rcsched.stage_commits"] = c.stageCommits / reps
	res["rcsched.shed_ratio"] = ratio(c.rejected, float64(t.attempted))
	res["rcsched.queue_wait_ms_sim"] = ratio(c.queueWaitPs, c.admitted) / 1e9
	res["rcsched.slot_util"] = c.slotUtil / reps
	res["fleet.route_ms"] = median(tr.durationsMs("fleet.Route"))
	res["fleet.cpu_parallelism"] = ratio(t.fleetCPU.Seconds(), t.fleetWall.Seconds())
	res["fleet.resident_route_ratio"] = ratio(c.residentRoutes, c.routed)
	res["fleet.util_spread"] = c.utilSpread / reps
	res["traffic.stream_ms"] = median(tr.durationsMs("traffic.Stream"))
	res["runtime.gc_per_job"] = plain.gcs / float64(max(plain.completed, 1))
	res["runtime.gc_pause_ms"] = plain.pauseNs / 1e6 / float64(len(plain.repSec))
	res["telemetry.overhead_pct"] = (median(t.repSec)/median(plain.repSec) - 1) * 100
	return res, nil
}

// readRuntime returns the bytes allocated and GC cycles completed so far.
func readRuntime() [2]float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return [2]float64{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// sampleHeap samples the bytes of heap objects every millisecond until the
// returned stop function is called; stop waits for the sampler to exit and
// returns the peak.
func sampleHeap() (stop func() float64) {
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond) //lint:allow walltime host-memory sampler of the benchmark, never enters simulated output
		defer tick.Stop()
		top := 0.0
		for {
			metrics.Read(s)
			top = max(top, float64(s[0].Value.Uint64()))
			select {
			case <-done:
				peak <- top
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// fingerprint names the host a result was measured on: CPU model, nproc,
// GOMAXPROCS and Go version. Results compare only across equal prints.
func fingerprint() string {
	cpu := "unknown"
	info, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: the model stays unknown
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			cpu = strings.TrimSpace(v)
			break
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
