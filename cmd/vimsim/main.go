// Command vimsim runs one application on the simulated reconfigurable SoC
// and prints the measured report — the command-line counterpart of the
// paper's measurement runs.
//
// One mode table maps each -mode to the flags its runner reads. A flag
// given explicitly on the command line that the selected mode does not
// read is rejected — even at its default value — with the one-line error
// "mode X does not support -Y", so no flag is ever silently ignored.
//
// Examples:
//
//	vimsim -app idea -size 32768
//	vimsim -app adpcm -size 8192 -policy lru -prefetch 1
//	vimsim -app vecadd -size 4096 -board EPXA4 -pipelined
//	vimsim -app idea -size 16384 -mode normal      # no-OS baseline
//	vimsim -app idea -size 32768 -mode chunked     # hand-chunked baseline
//	vimsim -app idea -size 16384 -mode sw          # pure software
//	vimsim -mode multi -board EPXA4 -split 4       # concurrent IDEA+ADPCM
//	vimsim -mode multi -arb global-lru             # ... with frame stealing
//	vimsim -mode serve -slots 2 -policy affinity   # serve a 24-job stream
//	vimsim -mode serve -jobs 32 -seed 7 -bw 250000 # ... slow config port
//	vimsim -mode serve -policy slack -stage        # deadline-aware + pre-staging
//	vimsim -mode serve -policy edf -budget 0.5     # tight service-level budgets
//	vimsim -mode saturate -rps 2000                # open-loop Poisson stream
//	vimsim -mode saturate -rps 2000 -admit reject  # ... shedding late jobs
//	vimsim -mode saturate -arrival bursty -rps 800 # on/off burst arrivals
//	vimsim -mode saturate -ramp                    # sweep RPS to the knee
//	vimsim -mode fleet -boards 4 -rps 6400         # dispatch across 4 boards
//	vimsim -mode fleet -dispatch affinity -admit reject
//	vimsim -mode fleet -boards 8 -dispatch po2 -ramp
//	vimsim -mode record -as serve -scenario run.json -policy affinity
//	vimsim -mode record -as fleet -scenario f.json -boards 4 -rps 6400
//	vimsim -mode replay -scenario run.json         # re-execute and match
//	vimsim -mode replay -scenario testdata/scenarios -format junit
//	vimsim -mode serve -metrics-out run.prom       # Prometheus-style metrics
//	vimsim -mode fleet -boards 4 -trace-out f.json # Perfetto-loadable trace
//	vimsim -mode saturate -metrics-out m.json -sample-ps 1e9  # sampled series
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/ideautil"
	"repro/internal/platform"
	"repro/internal/rcsched"
	"repro/internal/ref"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// options holds every flag value. A runner reads only the flags of its
// mode-table row; the others keep their defaults.
type options struct {
	mode, app, board, policy, arb, arrival, admit, dispatch string
	scenario, as, match, format, junit, vcd                 string
	size, split, slots, jobs, boards, prefetch              int
	bw, gap, budget, rps, tolerance                         float64
	stage, ramp, pipelined, bounce                          bool
	seed                                                    int64
	tele                                                    telemetryFlags
}

// modeRow is one row of the mode table: the flags a mode's runner reads,
// the value checks that run before any simulation work, and the runner.
type modeRow struct {
	name  string
	flags string // flag names without the dash, space-separated
	tele  bool   // the runner also reads the telemetry column
	check func(*options) error
	run   func(*options) error
}

// The flag columns shared by several rows.
const (
	singleFlags  = "app size board seed"
	servingFlags = "board policy slots jobs bw stage budget seed"
	openFlags    = servingFlags + " rps arrival admit ramp"
	teleFlags    = "metrics-out trace-out sample-ps"
)

// modes is the mode table. Record reads the record flags listed here plus
// its -as mode's row, minus -ramp: validateRecord rejects -ramp, since a
// scenario pins exactly one run.
var modes = []modeRow{
	{"vim", singleFlags + " policy pipelined bounce prefetch vcd", false, checkInput, runSingle},
	{"normal", singleFlags, false, checkInput, runSingle},
	{"chunked", singleFlags, false, checkInput, runSingle},
	{"sw", singleFlags, false, checkInput, runSingle},
	{"multi", "board arb split size seed", false, checkInput, runMulti},
	{"serve", servingFlags + " gap", true, checkServe, runServe},
	{"saturate", openFlags, true, checkSaturate, runSaturate},
	{"fleet", openFlags + " boards dispatch", true, checkFleet, runFleet},
	{"record", "scenario as match tolerance", true, nil, runRecord},
	{"replay", "scenario match format junit", true, checkReplay, runReplayMode},
}

// modeNames lists the table's modes joined by sep.
func modeNames(sep string) string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.name
	}
	return strings.Join(names, sep)
}

// newFlagSet defines every vimsim flag on a fresh FlagSet, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("vimsim", flag.ContinueOnError)
	fs.StringVar(&o.app, "app", "idea", "application: vecadd | adpcm | idea")
	fs.IntVar(&o.size, "size", 16384, "input size in bytes (vecadd: per-vector bytes)")
	fs.StringVar(&o.board, "board", "EPXA1", "board: EPXA1 | EPXA4 | EPXA10")
	fs.StringVar(&o.policy, "policy", "fifo", "replacement policy: fifo | lru | clock | random; serve mode: scheduling policy: fcfs | sjf | affinity | edf | slack")
	fs.StringVar(&o.mode, "mode", "vim", "execution mode: "+modeNames(" | "))
	fs.StringVar(&o.arb, "arb", "static", "multi mode: inter-session arbitration: static | global-lru")
	fs.IntVar(&o.split, "split", 0, "multi mode: page frames for the IDEA session (0 = half the pool)")
	fs.IntVar(&o.slots, "slots", 2, "serve mode: reconfigurable shell slots")
	fs.IntVar(&o.jobs, "jobs", 24, "serve mode: jobs in the generated multi-user stream")
	fs.Float64Var(&o.bw, "bw", 0, "serve mode: configuration-port bandwidth, bytes/s (0 = default)")
	fs.Float64Var(&o.gap, "gap", 0.15, "serve mode: mean arrival gap in ms")
	fs.BoolVar(&o.stage, "stage", false, "serve mode: pre-stage the next bitstream while slots execute")
	fs.Float64Var(&o.budget, "budget", rcsched.DefaultBudgetFactor, "serve/saturate mode: service-level budget factor scaling every job's deadline (saturate: 0 strips deadlines)")
	fs.Float64Var(&o.rps, "rps", 800, "saturate mode: offered arrival rate, jobs/s")
	fs.StringVar(&o.arrival, "arrival", "poisson", "saturate mode: arrival process: uniform | poisson | bursty")
	fs.StringVar(&o.admit, "admit", "off", "saturate mode: admission control: off | reject | degrade")
	fs.BoolVar(&o.ramp, "ramp", false, "saturate/fleet mode: sweep offered RPS up a linear ramp to the saturation knee instead of serving one rate")
	fs.IntVar(&o.boards, "boards", 4, "fleet mode: independent boards behind the dispatcher")
	fs.StringVar(&o.dispatch, "dispatch", "least-loaded", "fleet mode: dispatch policy: random | least-loaded | affinity | po2")
	fs.StringVar(&o.scenario, "scenario", "", "record mode: scenario file to write; replay mode: scenario file or directory to replay")
	fs.StringVar(&o.as, "as", "serve", "record mode: which serving run to record: serve | saturate | fleet")
	fs.StringVar(&o.match, "match", "", "record mode: match mode stored in the scenario; replay mode: override the file's mode: strict | metrics")
	fs.Float64Var(&o.tolerance, "tolerance", 0, "record mode: metrics-match relative tolerance stored in the scenario (0 = default)")
	fs.StringVar(&o.format, "format", "text", "replay mode: result format on stdout: text | json | junit")
	fs.StringVar(&o.junit, "junit", "", "replay mode: also write a JUnit XML report to this path")
	fs.StringVar(&o.tele.metricsOut, "metrics-out", "", "serving modes: write the run's metrics to this path (.json suffix = JSON dump, else Prometheus text)")
	fs.StringVar(&o.tele.traceOut, "trace-out", "", "serving modes: write the run's Chrome trace-event JSON (Perfetto-loadable) to this path")
	fs.Float64Var(&o.tele.samplePs, "sample-ps", 0, "serving modes: simulated-time gauge sampling interval in picoseconds (0 = no time series; needs -metrics-out)")
	fs.BoolVar(&o.pipelined, "pipelined", false, "use the pipelined IMU")
	fs.BoolVar(&o.bounce, "bounce", false, "use the double-transfer (bounce buffer) page path")
	fs.IntVar(&o.prefetch, "prefetch", 0, "sequential prefetch pages per fault")
	fs.Int64Var(&o.seed, "seed", 1, "input data seed; serve mode: trace seed")
	fs.StringVar(&o.vcd, "vcd", "", "write a session waveform (VCD) to this path (vim mode only)")
	return fs
}

// exitCode ends the process with that status and no log line: whatever
// explains it (usage text, a replay report) is already printed.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

// parse parses args into a fresh FlagSet, rejects every explicitly given
// flag the selected mode's row does not list, and runs the row's value
// checks. The returned function runs the mode.
func parse(args []string) (func() error, error) {
	o := &options{}
	fs := newFlagSet(o)
	if err := fs.Parse(args); err != nil { // the FlagSet has printed it
		if errors.Is(err, flag.ErrHelp) {
			return nil, exitCode(0)
		}
		return nil, exitCode(2)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q (vimsim takes flags only; see -h)", fs.Arg(0))
	}
	row, ok := lookupMode(o.mode)
	if !ok {
		return nil, fmt.Errorf("unknown -mode %q (want %s)", o.mode, modeNames(", "))
	}
	name := o.mode
	if o.mode == "record" {
		if err := validateRecord(o.as, o.scenario, o.match, o.tolerance, o.ramp); err != nil {
			return nil, err
		}
		as, _ := lookupMode(o.as)
		name = "record -as " + o.as
		row.flags += " " + as.flags
		row.check = as.check
	}
	if row.tele {
		row.flags += " " + teleFlags
	}
	reads := map[string]bool{"mode": true}
	for _, f := range strings.Fields(row.flags) {
		reads[f] = true
	}
	var unread string // the first given flag the row does not list
	fs.Visit(func(f *flag.Flag) {
		if !reads[f.Name] && unread == "" {
			unread = f.Name
		}
	})
	if unread != "" {
		return nil, fmt.Errorf("mode %s does not support -%s", name, unread)
	}
	if row.check != nil {
		if err := row.check(o); err != nil {
			return nil, err
		}
	}
	if row.tele {
		if err := o.tele.validate(o.ramp); err != nil {
			return nil, err
		}
	}
	return func() error { return row.run(o) }, nil
}

// lookupMode returns the mode table's row for name.
func lookupMode(name string) (modeRow, bool) {
	for _, m := range modes {
		if m.name == name {
			return m, true
		}
	}
	return modeRow{}, false
}

func main() {
	run, err := parse(os.Args[1:])
	if err == nil {
		err = run()
	}
	var code exitCode
	if errors.As(err, &code) {
		os.Exit(int(code))
	}
	if err != nil {
		log.Fatal(err)
	}
}

// checkInput rejects single-run inputs that hold no data and negative
// prefetch depths. Multi mode always runs IDEA, and its row leaves -app at
// its default "idea".
func checkInput(o *options) error {
	if o.size <= 0 {
		return fmt.Errorf("-size must be positive, got %d (try -size 16384)", o.size)
	}
	if o.app == "idea" && o.size&^7 == 0 {
		return fmt.Errorf("-size %d holds no whole 8-byte IDEA block (try -size 16384)", o.size)
	}
	if o.prefetch < 0 {
		return fmt.Errorf("-prefetch must be non-negative, got %d (try -prefetch 1)", o.prefetch)
	}
	return nil
}

func checkServe(o *options) error {
	if o.budget <= 0 {
		return fmt.Errorf("serve: service-level budget factor must be positive, got %g (try -budget 2)", o.budget)
	}
	return nil
}

func checkSaturate(o *options) error {
	return validateSaturate(o.rps, o.arrival, o.admit, o.budget, o.jobs)
}

func checkFleet(o *options) error {
	if o.boards <= 0 {
		return fmt.Errorf("fleet: -boards must be positive, got %d", o.boards)
	}
	return checkSaturate(o)
}

func checkReplay(o *options) error {
	return validateReplay(o.scenario, o.match, o.format)
}

// boardConfig builds one board's serving config, metered by meter (nil =
// off), for the serving modes and record. The single-run -policy default
// fifo maps to the serving default fcfs.
func (o *options) boardConfig(meter *telemetry.Meter) rcsched.Config {
	policy := o.policy
	if policy == "fifo" {
		policy = "fcfs"
	}
	return rcsched.Config{
		Board:    o.board,
		Slots:    o.slots,
		Policy:   policy,
		ConfigBW: o.bw,
		Stage:    o.stage,
		Admit:    o.admit,
		Meter:    meter,
	}
}

// fleetConfig builds the fleet config for fleet mode and record -as fleet.
func (o *options) fleetConfig(meter *telemetry.Meter) fleet.Config {
	return fleet.Config{
		Boards:   o.boards,
		Dispatch: o.dispatch,
		Seed:     o.seed,
		Board:    o.boardConfig(nil),
		Meter:    meter,
	}
}

// stream builds the job stream mode serves: serve's closed-form multi-user
// trace, or the open-loop arrival process of saturate and fleet, where
// -budget 0 strips every deadline.
func (o *options) stream(mode string) ([]rcsched.Job, error) {
	if mode == "serve" {
		stream, err := rcsched.Trace(o.jobs, o.seed, o.gap*1e9)
		if err != nil {
			return nil, err
		}
		rcsched.SetBudgets(stream, o.budget)
		return stream, nil
	}
	stream, err := traffic.Stream(o.jobs, o.seed, o.spec())
	if err != nil {
		return nil, err
	}
	if o.budget == 0 {
		for i := range stream {
			stream[i].DeadlinePs = 0
		}
	} else if o.budget != rcsched.DefaultBudgetFactor {
		rcsched.SetBudgets(stream, o.budget)
	}
	return stream, nil
}

func (o *options) spec() traffic.Spec { return traffic.Spec{Process: o.arrival, RPS: o.rps} }

// rampSpec sweeps from a quarter of the target rate up to three times it.
func (o *options) rampSpec() traffic.RampSpec {
	return traffic.RampSpec{StartRPS: o.rps / 4, StepRPS: o.rps / 4, Steps: 12, Jobs: o.jobs, Seed: o.seed}
}

// runSingle runs one application in vim, normal, chunked or sw mode and
// prints its report.
func runSingle(o *options) error {
	run := runVirtual
	if o.mode == "normal" || o.mode == "chunked" {
		run = runBaseline
	}
	rep, err := run(o)
	if errors.Is(err, baseline.ErrExceedsMemory) {
		fmt.Printf("%s %d bytes in %q mode: exceeds available memory (the paper's Figure 9 annotation)\n",
			o.app, o.size, o.mode)
		return nil
	}
	if err != nil {
		return err
	}
	printReport(rep)
	if o.vcd != "" {
		fmt.Printf("waveform     %s\n", o.vcd)
	}
	return nil
}

// runVirtual runs -app on seeded random input, behind the VIM (vim mode)
// or in pure software (sw mode), writing the session waveform to -vcd.
func runVirtual(o *options) (*core.Report, error) {
	sys, err := repro.NewSystem(repro.Config{
		Board:         o.board,
		Policy:        o.policy,
		PipelinedIMU:  o.pipelined,
		BounceBuffer:  o.bounce,
		PrefetchPages: o.prefetch,
		Seed:          o.seed,
	})
	if err != nil {
		return nil, err
	}
	p, err := sys.NewProcess(o.app)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	size := o.size
	type object struct {
		id  int
		buf repro.Buffer
		dir repro.Direction
	}
	var (
		bitstream []byte
		objects   []object
		params    []uint32
		board     = sys.Board().Spec.Name
	)
	switch o.app {
	case "vecadd":
		b, err := allocFill(p, rng, 2, size, size, size)
		if err != nil {
			return nil, err
		}
		if o.mode == "sw" {
			return p.RunVecAddSW(b[0], b[1], b[2], size/4), nil
		}
		bitstream, params = repro.VecAddBitstream(board), []uint32{uint32(size / 4)}
		objects = []object{{repro.VecAddObjA, b[0], repro.In}, {repro.VecAddObjB, b[1], repro.In}, {repro.VecAddObjC, b[2], repro.Out}}
	case "adpcm":
		b, err := allocFill(p, rng, 1, size, size*4)
		if err != nil {
			return nil, err
		}
		if o.mode == "sw" {
			return p.RunADPCMDecodeSW(b[0], b[1])
		}
		bitstream, params = repro.ADPCMBitstream(board), []uint32{uint32(size)}
		objects = []object{{repro.ADPCMObjIn, b[0], repro.In}, {repro.ADPCMObjOut, b[1], repro.Out}}
	case "idea":
		size &^= 7
		var key repro.IDEAKey
		rng.Read(key[:])
		b, err := allocFill(p, rng, 1, size, size)
		if err != nil {
			return nil, err
		}
		if o.mode == "sw" {
			return p.RunIDEASW(key, b[0], b[1])
		}
		bitstream, params = repro.IDEABitstream(board), repro.IDEAEncryptParams(key, size/8)
		objects = []object{{repro.IDEAObjIn, b[0], repro.In}, {repro.IDEAObjOut, b[1], repro.Out}}
	default:
		return nil, fmt.Errorf("unknown app %q", o.app)
	}
	if err := p.FPGALoad(bitstream); err != nil {
		return nil, err
	}
	var rec *trace.Recorder
	if o.vcd != "" {
		if rec, err = p.Session().TraceSession(); err != nil {
			return nil, err
		}
	}
	for _, o := range objects {
		if err := p.FPGAMapObject(o.id, o.buf, o.dir); err != nil {
			return nil, err
		}
	}
	rep, err := p.FPGAExecute(params...)
	if err != nil || rec == nil {
		return rep, err
	}
	f, err := os.Create(o.vcd)
	if err != nil {
		return nil, err
	}
	if err := core.WriteVCD(f, rec); err != nil {
		f.Close()
		return nil, err
	}
	return rep, f.Close()
}

// allocFill allocates one buffer per size and fills the first filled of
// them, in order, with random bytes drawn from rng.
func allocFill(p *repro.Process, rng *rand.Rand, filled int, sizes ...int) ([]repro.Buffer, error) {
	bufs := make([]repro.Buffer, len(sizes))
	for i, n := range sizes {
		var err error
		if bufs[i], err = p.Alloc(n); err != nil {
			return nil, err
		}
	}
	for i, b := range bufs[:filled] {
		data := make([]byte, sizes[i])
		rng.Read(data)
		if err := b.Write(data); err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// runMulti runs the multi-coprocessor sessions gang: IDEA (size bytes) and
// ADPCM (size/2 bytes) concurrently behind one VIM, and prints the shared
// and per-session report.
func runMulti(o *options) error {
	spec, ok := platform.SpecByName(o.board)
	if !ok {
		return fmt.Errorf("unknown board %q", o.board)
	}
	pages := spec.DPBytes >> spec.PageLog
	split := o.split
	if split == 0 {
		split = pages / 2
	}
	if split < 2 || split > pages-2 {
		return fmt.Errorf("split %d out of range [2,%d] on %s", split, pages-2, o.board)
	}
	size := o.size &^ 7
	rep, err := exp.SessionsGang(o.board, o.arb, split, size, size/2, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("mode        multi-session (concurrent %s)\n", rep.Report().App)
	fmt.Printf("board       %s\n", rep.Board)
	fmt.Printf("arbitration %s\n", rep.Arb)
	fmt.Printf("imu         %s\n", rep.IMUMode)
	fmt.Printf("total       %.3f ms\n", rep.TotalMs())
	fmt.Printf("  HW        %.3f ms\n", rep.HWPs/1e9)
	fmt.Printf("  SW(DP)    %.3f ms\n", rep.SWDPPs/1e9)
	fmt.Printf("  SW(IMU)   %.3f ms\n", rep.SWIMUPs/1e9)
	fmt.Printf("  SW(OS)    %.3f ms\n", rep.SWOSPs/1e9)
	fmt.Printf("hw cycles   %d (IMU clock)\n", rep.HWCy)
	fmt.Printf("steals      %d\n", rep.VIM.Steals)
	for i, s := range rep.Sessions {
		fmt.Printf("session %d   %s (policy %s): done %.3f ms, %d faults, %d evictions, %d steals, %d pages loaded\n",
			i, s.App, s.Policy, s.DonePs/1e9, s.VIM.Faults, s.VIM.Evictions, s.VIM.Steals, s.VIM.PagesLoaded)
	}
	return nil
}

// runServe generates a seeded multi-user job stream and serves it through
// the dynamic reconfiguration scheduler, printing the per-job log and the
// aggregate report.
func runServe(o *options) error {
	stream, err := o.stream("serve")
	if err != nil {
		return err
	}
	meter := o.tele.meter()
	rep, err := rcsched.Serve(o.boardConfig(meter), stream)
	if err != nil {
		return err
	}
	staging := "off"
	if o.stage {
		staging = fmt.Sprintf("on (%d commits, %d cancels)", rep.StageCommits, rep.StageCancels)
	}
	fmt.Printf("mode        serve (%d jobs, seed %d, mean gap %.2f ms, budget factor %g)\n", o.jobs, o.seed, o.gap, o.budget)
	fmt.Printf("board       %s\n", rep.Board)
	fmt.Printf("policy      %s\n", rep.Policy)
	fmt.Printf("slots       %d\n", rep.Slots)
	fmt.Printf("config BW   %.0f KB/s\n", rep.ConfigBW/1000)
	fmt.Printf("staging     %s\n", staging)
	fmt.Printf("makespan    %.3f ms\n", rep.MakespanPs/1e9)
	fmt.Printf("mean wait   %.3f ms\n", rep.MeanWaitPs/1e9)
	fmt.Printf("mean lat.   %.3f ms\n", rep.MeanLatencyPs/1e9)
	fmt.Printf("p99 lat.    %.3f ms\n", rep.P99LatencyPs/1e9)
	fmt.Printf("deadlines   %d of %d missed (miss rate %.2f)\n", rep.Misses, len(rep.Jobs), rep.MissRate)
	fmt.Printf("reconfigs   %d (%.3f ms on the config port)\n", rep.Reconfigs, rep.TotalReconfigPs/1e9)
	fmt.Printf("utilisation %.2f mean across slots\n", rep.UtilMean)
	fmt.Printf("sw          %.3f ms DP, %.3f ms IMU, %.3f ms OS\n",
		rep.SWDPPs/1e9, rep.SWIMUPs/1e9, rep.SWOSPs/1e9)
	fmt.Printf("paging      %d faults, %d pages loaded, %d flushed\n",
		rep.VIM.Faults, rep.VIM.PagesLoaded, rep.VIM.PagesFlushed)
	fmt.Println("jobs        (all outputs verified against the golden algorithms)")
	for _, j := range rep.Jobs {
		reconf := "resident"
		switch {
		case j.Staged:
			reconf = fmt.Sprintf("staged %.3f ms", j.ReconfigPs/1e9)
		case j.Reconfigured:
			reconf = fmt.Sprintf("reconfig %.2f ms", j.ReconfigPs/1e9)
		}
		slo := "met "
		if j.Missed {
			slo = fmt.Sprintf("LATE %+.2f", j.LatenessPs/1e9)
		}
		fmt.Printf("  #%-3d %-7s %5d B  slot %d  arrive %7.3f  wait %7.3f  exec %7.3f  done %7.3f  dl %7.3f ms %s  %s\n",
			j.ID, j.App, j.Size, j.Slot, j.ArrivalPs/1e9, j.QueueWaitPs/1e9, j.ExecPs/1e9, j.DonePs/1e9,
			j.DeadlinePs/1e9, slo, reconf)
	}
	return o.tele.export(meter)
}

// validateSaturate checks the saturate-mode flag combination before any
// simulation work starts; every rejection is a one-line error carrying a
// usage hint (main turns it into a non-zero exit).
func validateSaturate(rps float64, arrival, admit string, budget float64, jobs int) error {
	if jobs <= 0 {
		return fmt.Errorf("saturate: -jobs must be positive, got %d (try -jobs 40)", jobs)
	}
	if rps <= 0 {
		return fmt.Errorf("saturate: -rps must be positive, got %g (try -rps 800)", rps)
	}
	switch arrival {
	case "uniform", "poisson", "bursty":
	default:
		return fmt.Errorf("saturate: unknown -arrival %q (want uniform, poisson or bursty)", arrival)
	}
	switch admit {
	case "", "off", "reject", "degrade":
	default:
		return fmt.Errorf("saturate: unknown -admit %q (want off, reject or degrade)", admit)
	}
	if budget < 0 {
		return fmt.Errorf("saturate: -budget must be non-negative, got %g (0 strips deadlines)", budget)
	}
	if budget == 0 && admit != "" && admit != "off" {
		return fmt.Errorf("saturate: -admit %s sheds by deadline, but -budget 0 strips every deadline (set -budget > 0)", admit)
	}
	return nil
}

// runSaturate serves one open-loop stream — or, with -ramp, sweeps offered
// RPS up a linear ramp until the overload detector fires — and prints the
// saturation report.
func runSaturate(o *options) error {
	meter := o.tele.meter() // nil on a ramp: tele.validate rejected the combination
	cfg := o.boardConfig(meter)
	if o.ramp {
		res, err := traffic.FindKnee(o.spec(), o.rampSpec(), traffic.ServeStep(cfg))
		if err != nil {
			return err
		}
		fmt.Printf("mode        saturate ramp (%s arrivals, %d jobs per step, seed %d)\n", o.arrival, o.jobs, o.seed)
		fmt.Printf("board       %s\n", o.board)
		printRamp(o, res, "board", "")
		return nil
	}
	stream, err := o.stream("saturate")
	if err != nil {
		return err
	}
	rep, err := rcsched.Serve(cfg, stream)
	if err != nil {
		return err
	}
	fmt.Printf("mode        saturate (%s arrivals at %.0f jobs/s, %d jobs, seed %d, budget factor %g)\n",
		o.arrival, o.rps, o.jobs, o.seed, o.budget)
	fmt.Printf("board       %s\n", rep.Board)
	fmt.Printf("policy      %s (%d slots, admission %s)\n", rep.Policy, rep.Slots, o.admit)
	printSummary(rep.Summary, rep.Jobs)
	fmt.Printf("utilisation %.2f mean across slots\n", rep.UtilMean)
	fmt.Println("jobs")
	printJobs(rep.Jobs, nil)
	return o.tele.export(meter)
}

// runFleet dispatches one open-loop stream across a pool of independent
// boards — or, with -ramp, sweeps offered RPS up a linear ramp until the
// overload detector fires on the merged fleet report — and prints the
// fleet-wide aggregates, the per-board breakdown and the routed job log.
func runFleet(o *options) error {
	meter := o.tele.meter() // nil on a ramp: tele.validate rejected the combination
	cfg := o.fleetConfig(meter)
	if o.ramp {
		res, err := traffic.FindKnee(o.spec(), o.rampSpec(), fleet.Step(cfg))
		if err != nil {
			return err
		}
		fmt.Printf("mode        fleet ramp (%d boards, %s dispatch, %s arrivals, %d jobs per step, seed %d)\n",
			o.boards, o.dispatch, o.arrival, o.jobs, o.seed)
		fmt.Printf("board       %s x%d\n", o.board, o.boards)
		printRamp(o, res, "fleet", ", window over the merged arrival order")
		return nil
	}
	stream, err := o.stream("fleet")
	if err != nil {
		return err
	}
	rep, err := fleet.Run(cfg, stream)
	if err != nil {
		return err
	}
	boardOf := make(map[int]int, len(rep.Decisions))
	for _, d := range rep.Decisions {
		boardOf[d.Job] = d.Board
	}
	fmt.Printf("mode        fleet (%s arrivals at %.0f jobs/s, %d jobs, seed %d, budget factor %g)\n",
		o.arrival, o.rps, o.jobs, o.seed, o.budget)
	fmt.Printf("board       %s x%d (%d slots each)\n", o.board, o.boards, o.slots)
	fmt.Printf("dispatch    %s\n", rep.Dispatch)
	fmt.Printf("policy      %s (admission %s)\n", cfg.Board.Policy, o.admit)
	printSummary(rep.Summary, rep.Jobs)
	fmt.Printf("reconfigs   %d (%.3f ms fleet-wide on the config ports)\n", rep.Reconfigs, rep.TotalReconfigPs/1e9)
	fmt.Printf("utilisation %.2f mean per board (spread %.2f-%.2f)\n", rep.UtilMean, rep.UtilMin, rep.UtilMax)
	fmt.Println("boards")
	for b, br := range rep.Boards {
		fmt.Printf("  board %-2d  %3d jobs  %2d reconfigs (%7.3f ms)  %2d missed  goodput %5.0f jobs/s\n",
			b, len(br.Jobs), br.Reconfigs, br.TotalReconfigPs/1e9, br.Misses, br.GoodputRPS)
	}
	fmt.Println("jobs        (merged arrival order)")
	printJobs(rep.Jobs, boardOf)
	return o.tele.export(meter)
}

// printSummary prints the serving aggregates saturate and fleet share;
// jobs is the run's arrival-ordered job list the detector slides over.
func printSummary(sum rcsched.Summary, jobs []rcsched.JobReport) {
	fmt.Printf("offered     %.0f jobs/s measured\n", sum.OfferedRPS)
	fmt.Printf("achieved    %.0f jobs/s (%d of %d completed)\n", sum.AchievedRPS, sum.Completed, len(jobs))
	fmt.Printf("goodput     %.0f jobs/s met their deadline\n", sum.GoodputRPS)
	fmt.Printf("admission   %d admitted, %d degraded, %d rejected (shed rate %.2f)\n",
		sum.Admitted, sum.Degraded, sum.Rejected, sum.ShedRate)
	fmt.Printf("overloaded  %v\n", traffic.Overloaded(jobs, 0, 0))
	fmt.Printf("makespan    %.3f ms\n", sum.MakespanPs/1e9)
	fmt.Printf("p99 lat.    %.3f ms (admitted only: %.3f ms)\n", sum.P99LatencyPs/1e9, sum.P99AdmittedPs/1e9)
	fmt.Printf("deadlines   %d missed (miss rate %.2f over completed)\n", sum.Misses, sum.MissRate)
}

// printRamp prints a saturate or fleet ramp sweep: the detector, one line
// per step, and the knee. unit names what kept up when no step overloaded.
func printRamp(o *options, res *traffic.Ramp, unit, window string) {
	fmt.Printf("policy      %s (%d slots, admission %s)\n", o.boardConfig(nil).Policy, o.slots, o.admit)
	fmt.Printf("detector    >%.0f%% of any %d consecutive jobs failing%s\n",
		100*traffic.DefaultThreshold, traffic.DefaultWindow, window)
	fmt.Println("ramp        target | offered | achieved | goodput RPS | shed | miss | p99 ms")
	for _, p := range res.Points {
		over := ""
		if p.Overloaded {
			over = "  <- overloaded"
		}
		fmt.Printf("  %10.0f | %7.0f | %8.0f | %11.0f | %.2f | %.2f | %7.3f%s\n",
			p.RPS, p.OfferedRPS, p.AchievedRPS, p.GoodputRPS, p.ShedRate, p.MissRate,
			p.P99LatencyPs/1e9, over)
	}
	if res.SaturationRPS == 0 {
		fmt.Printf("knee        not reached: the %s keeps up through %.0f jobs/s\n",
			unit, res.Points[len(res.Points)-1].RPS)
		return
	}
	fmt.Printf("knee        %.0f jobs/s (saturates at %.0f)\n", res.KneeRPS, res.SaturationRPS)
}

// printJobs prints an open-loop job log. A fleet log (boardOf non-nil)
// places every job on its board; a single-board log places served jobs on
// their slot.
func printJobs(jobs []rcsched.JobReport, boardOf map[int]int) {
	for _, j := range jobs {
		at := ""
		if boardOf != nil {
			at = fmt.Sprintf("board %-2d ", boardOf[j.ID])
		}
		switch j.Disposition {
		case rcsched.Rejected:
			fmt.Printf("  #%-3d %-7s %5d B  %sREJECTED at %7.3f ms (deadline %7.3f ms)\n",
				j.ID, j.App, j.Size, at, j.DonePs/1e9, j.DeadlinePs/1e9)
		case rcsched.Degraded:
			fmt.Printf("  #%-3d %-7s %5d B  %sdegraded: SW exec %7.3f  done %7.3f  dl %7.3f ms\n",
				j.ID, j.App, j.Size, at, j.ExecPs/1e9, j.DonePs/1e9, j.DeadlinePs/1e9)
		default:
			if boardOf == nil {
				at = fmt.Sprintf("slot %d  ", j.Slot)
			}
			slo := "met "
			if j.Missed {
				slo = fmt.Sprintf("LATE %+.2f", j.LatenessPs/1e9)
			}
			fmt.Printf("  #%-3d %-7s %5d B  %sarrive %7.3f  wait %7.3f  exec %7.3f  done %7.3f  dl %7.3f ms %s\n",
				j.ID, j.App, j.Size, at, j.ArrivalPs/1e9, j.QueueWaitPs/1e9, j.ExecPs/1e9,
				j.DonePs/1e9, j.DeadlinePs/1e9, slo)
		}
	}
}

// validateRecord checks the record-mode flag combination before any
// simulation work starts; every rejection is a one-line error carrying a
// usage hint (main turns it into a non-zero exit).
func validateRecord(as, scenarioPath, match string, tolerance float64, ramp bool) error {
	if scenarioPath == "" {
		return fmt.Errorf("record: -scenario must name the output file (try -scenario run.json)")
	}
	switch as {
	case "serve", "saturate", "fleet":
	default:
		return fmt.Errorf("record: unknown -as %q (want serve, saturate or fleet)", as)
	}
	switch match {
	case "", scenario.Strict, scenario.Metrics:
	default:
		return fmt.Errorf("record: unknown -match %q (want strict or metrics)", match)
	}
	if tolerance < 0 {
		return fmt.Errorf("record: -tolerance must be non-negative, got %g", tolerance)
	}
	if tolerance != 0 && match != scenario.Metrics {
		return fmt.Errorf("record: -tolerance only applies with -match metrics")
	}
	if ramp {
		return fmt.Errorf("record: -ramp sweeps many runs where a scenario pins exactly one (record the knee rate instead: -rps <knee>)")
	}
	return nil
}

// validateReplay checks the replay-mode flag combination.
func validateReplay(scenarioPath, match, format string) error {
	if scenarioPath == "" {
		return fmt.Errorf("replay: -scenario must name a scenario file or directory (try -scenario testdata/scenarios)")
	}
	switch match {
	case "", scenario.Strict, scenario.Metrics:
	default:
		return fmt.Errorf("replay: unknown -match %q (want strict or metrics)", match)
	}
	switch format {
	case "text", "json", "junit":
	default:
		return fmt.Errorf("replay: unknown -format %q (want text, json or junit)", format)
	}
	return nil
}

// runRecord executes the -as mode's run with recording attached, built by
// the same config and stream builders that mode uses, and writes the
// scenario file. The scenario's name is the file's base name; its
// description is the reconstructed command line, so a corpus stays
// greppable for how each pinned run was produced.
func runRecord(o *options) error {
	stream, err := o.stream(o.as)
	if err != nil {
		return err
	}
	meter := o.tele.meter()
	cfg := o.boardConfig(meter)
	name := strings.TrimSuffix(filepath.Base(o.scenario), ".json")
	desc := fmt.Sprintf("vimsim -mode record -as %s -scenario %s -board %s -policy %s -slots %d -jobs %d -seed %d",
		o.as, filepath.Base(o.scenario), o.board, cfg.Policy, o.slots, o.jobs, o.seed)
	if o.bw != 0 {
		desc += fmt.Sprintf(" -bw %g", o.bw)
	}
	if o.stage {
		desc += " -stage"
	}
	if o.budget != rcsched.DefaultBudgetFactor {
		desc += fmt.Sprintf(" -budget %g", o.budget)
	}
	if o.as == "serve" {
		desc += fmt.Sprintf(" -gap %g", o.gap)
	} else {
		desc += fmt.Sprintf(" -arrival %s -rps %g -admit %s", o.arrival, o.rps, o.admit)
	}
	match := scenario.Match{Mode: o.match, Tolerance: o.tolerance}
	var sc *scenario.Scenario
	if o.as == "fleet" {
		desc += fmt.Sprintf(" -boards %d -dispatch %s", o.boards, o.dispatch)
		sc, err = scenario.RecordFleet(name, desc, o.fleetConfig(meter), stream, match)
	} else {
		sc, err = scenario.RecordServe(name, desc, cfg, stream, match)
	}
	if err != nil {
		return err
	}
	data, err := scenario.Serialize(sc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.scenario, data, 0o644); err != nil {
		return err
	}
	steps := len(sc.Expect.Events) + len(sc.Expect.Decisions)
	for _, ev := range sc.Expect.BoardEvents {
		steps += len(ev)
	}
	matching := sc.Match.Mode
	if matching == "" {
		matching = scenario.Strict
	}
	fmt.Printf("mode        record (-as %s)\n", o.as)
	fmt.Printf("scenario    %s (%s, %s matching)\n", o.scenario, sc.Kind, matching)
	fmt.Printf("jobs        %d pinned (%d decision steps)\n", len(sc.Jobs), steps)
	fmt.Printf("makespan    %.3f ms\n", sc.Expect.Aggregate.MakespanPs/1e9)
	fmt.Printf("replay      vimsim -mode replay -scenario %s\n", o.scenario)
	return o.tele.export(meter)
}

// runReplayMode replays -scenario; a scenario that fails to reproduce
// exits 1 after the report.
func runReplayMode(o *options) error {
	ok, err := runReplay(o.scenario, o.match, o.format, o.junit, o.tele)
	if err == nil && !ok {
		return exitCode(1)
	}
	return err
}

// runReplay replays one scenario file — or every *.json under a directory,
// the corpus case — and renders the results in the selected format. The
// boolean result is the overall verdict: false (a non-zero exit) when any
// scenario failed to parse or reproduce.
func runReplay(path, match, format, junitOut string, tele telemetryFlags) (bool, error) {
	info, err := os.Stat(path)
	if err != nil {
		return false, err
	}
	if tele.enabled() && info.IsDir() {
		return false, fmt.Errorf("replay: -metrics-out and -trace-out export exactly one replayed run, but %s is a corpus directory (replay one scenario file)", path)
	}
	files := []string{path}
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return false, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			return false, fmt.Errorf("replay: no *.json scenarios under %s", path)
		}
	}
	results := make([]*scenario.Result, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return false, err
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			// A broken file is a failing case, not a dead sweep: the rest
			// of the corpus still replays and the report names the culprit.
			results = append(results, &scenario.Result{
				Name: strings.TrimSuffix(filepath.Base(f), ".json"),
				Err:  err.Error(),
			})
			continue
		}
		// A single-file replay may carry telemetry: the metered re-run must
		// match the scenario exactly like an unmetered one (passivity), so
		// the exports double as a pinned-run telemetry snapshot.
		meter := tele.meter()
		res, err := scenario.ReplayMetered(sc, match, meter)
		if err != nil {
			return false, err
		}
		if err := tele.export(meter); err != nil {
			return false, err
		}
		results = append(results, res)
	}
	junit, err := scenario.FormatJUnit("vimsim-scenarios", results)
	if err != nil {
		return false, err
	}
	switch format {
	case "json":
		data, err := scenario.FormatJSON(results)
		if err != nil {
			return false, err
		}
		os.Stdout.Write(data)
	case "junit":
		os.Stdout.Write(junit)
	default:
		fmt.Print(scenario.FormatText(results))
	}
	if junitOut != "" {
		if err := os.WriteFile(junitOut, junit, 0o644); err != nil {
			return false, err
		}
	}
	for _, r := range results {
		if !r.Pass() {
			return false, nil
		}
	}
	return true, nil
}

// runBaseline runs -app on seeded random input on the no-OS baseline:
// single-shot (normal mode) or hand-chunked (chunked mode).
func runBaseline(o *options) (*core.Report, error) {
	spec, ok := platform.SpecByName(o.board)
	if !ok {
		return nil, fmt.Errorf("unknown board %q", o.board)
	}
	rng := rand.New(rand.NewSource(o.seed))
	size := o.size
	var (
		bitstream []byte
		items     int
		streams   []*baseline.Stream
		params    baseline.ParamsFunc
	)
	switch o.app {
	case "idea":
		size &^= 7
		var key ref.IDEAKey
		rng.Read(key[:])
		in := make([]byte, size)
		rng.Read(in)
		bitstream, items, streams, params = repro.IDEABitstream(spec.Name), size/8, ideautil.Streams(in), ideautil.Params(key)
	case "adpcm":
		in := make([]byte, size)
		rng.Read(in)
		bitstream, items, streams, params = repro.ADPCMBitstream(spec.Name), size, ideautil.ADPCMStreams(in), ideautil.ADPCMParams()
	default:
		return nil, fmt.Errorf("baseline modes support idea and adpcm, not %q", o.app)
	}
	r, err := baseline.NewRunner(spec, bitstream)
	if err != nil {
		return nil, err
	}
	if o.mode == "normal" {
		return r.RunSingleShot(items, streams, params)
	}
	return r.RunChunked(items, streams, params)
}

func printReport(r *core.Report) {
	fmt.Printf("app         %s\n", r.App)
	fmt.Printf("board       %s\n", r.Board)
	if r.PurePs > 0 {
		fmt.Printf("mode        pure software\n")
		fmt.Printf("total       %.3f ms\n", r.TotalMs())
		return
	}
	fmt.Printf("policy      %s\n", r.Policy)
	fmt.Printf("imu         %s\n", r.IMUMode)
	fmt.Printf("total       %.3f ms\n", r.TotalMs())
	fmt.Printf("  HW        %.3f ms\n", r.HWPs/1e9)
	fmt.Printf("  SW(DP)    %.3f ms\n", r.SWDPPs/1e9)
	fmt.Printf("  SW(IMU)   %.3f ms\n", r.SWIMUPs/1e9)
	fmt.Printf("  SW(OS)    %.3f ms\n", r.SWOSPs/1e9)
	if r.ConfigPs > 0 {
		fmt.Printf("config      %.3f ms (FPGA_LOAD, excluded from total)\n", r.ConfigPs/1e9)
	}
	fmt.Printf("faults      %d\n", r.VIM.Faults)
	fmt.Printf("evictions   %d (writebacks %d)\n", r.VIM.Evictions, r.VIM.Writebacks)
	fmt.Printf("pages       %d loaded, %d flushed, %d load-elided, %d prefetched\n",
		r.VIM.PagesLoaded, r.VIM.PagesFlushed, r.VIM.LoadsElided, r.VIM.Prefetches)
	fmt.Printf("bytes       %d in, %d out\n", r.VIM.BytesIn, r.VIM.BytesOut)
	fmt.Printf("tlb         %d accesses, %d hits, %d faults\n",
		r.IMU.Accesses, r.IMU.Hits, r.IMU.Faults)
	fmt.Printf("hw cycles   %d (IMU clock)\n", r.HWCy)
}
