package main

import (
	"math"
	"sort"
)

// Workload names, as BENCHMARK.json and the -workload flag spell them.
const (
	paperVIM      = "paper-vim"
	fleetAffinity = "fleet-affinity"
	serveDeep     = "serve-deep"
)

var (
	allWorkloads = []string{paperVIM, fleetAffinity, serveDeep}
	serving      = []string{fleetAffinity, serveDeep}
)

// metricDef is one end-to-end metric: reported on every workload from the
// untraced run.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the end-to-end metrics in print order. "Host" metrics are
// the simulator's own wall clock and memory; "sim_" metrics are the
// modelled hardware's picosecond clock and repeat exactly for one seed.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s", "higher"},
	{"rep_ms_p50", "ms", "lower"},
	{"sim_mcycles_per_s", "Mcycles/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"alloc_kb_per_job", "KB", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_ms_per_job", "ms", "lower"},
	{"sim_goodput_rps", "jobs/s", "higher"},
	{"sim_p99_latency_ms", "ms", "lower"},
}

// layerDef is one per-layer metric from the traced run, with the
// prediction it carries: which end-to-end metrics it should move (Moves)
// on which workloads (On), and on which workloads the prediction is no
// change (Still). Only telemetry metrics move nothing: they describe the
// traced run itself.
type layerDef struct {
	Name, Unit, Better string
	Moves              []string
	On                 []string
	Still              []string
}

// layers lists the per-layer metrics in print order. A "cpu_share" is the
// layer's self CPU (pprof flat) over all CPU sampled in the traced phase;
// the shares of all buckets in cpuBuckets sum to 1.
var layers = []layerDef{
	{"sim.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, allWorkloads, nil},
	{"sim.ns_per_edge", "ns", "lower", []string{"jobs_per_s", "sim_mcycles_per_s"}, serving, nil},
	{"sim.edges_per_job", "count", "lower", []string{"jobs_per_s", "sim_mcycles_per_s"}, serving, nil},
	{"sim.skip_ratio", "fraction", "higher", []string{"sim_mcycles_per_s"}, serving, []string{paperVIM}},

	{"core.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, []string{paperVIM}, nil},
	{"core.ns_per_hw_cycle", "ns", "lower", []string{"jobs_per_s"}, []string{paperVIM}, nil},
	{"repro.fpga_load_ms", "ms", "lower", []string{"jobs_per_s", "rep_ms_p50"}, []string{paperVIM}, nil},
	{"repro.fpga_map_ms", "ms", "lower", []string{"jobs_per_s", "rep_ms_p50"}, []string{paperVIM}, nil},
	{"repro.fpga_execute_ms", "ms", "lower", []string{"jobs_per_s", "rep_ms_p50"}, []string{paperVIM}, nil},

	{"imu.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, allWorkloads, nil},
	{"imu.accesses_per_job", "count", "lower", []string{"jobs_per_s"}, allWorkloads, nil},
	{"imu.hit_ratio", "fraction", "higher", []string{"jobs_per_s"}, allWorkloads, nil},
	{"imu.fault_cycles_per_job", "cycles", "lower", []string{"sim_ms_per_job"}, []string{paperVIM}, nil},

	{"vim.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, []string{paperVIM}, nil},
	{"vim.faults_per_job", "count", "lower", []string{"sim_ms_per_job"}, []string{paperVIM}, []string{fleetAffinity}},
	{"vim.writebacks_per_job", "count", "lower", []string{"sim_ms_per_job"}, []string{paperVIM}, []string{fleetAffinity}},
	{"vim.bytes_per_job", "bytes", "lower", []string{"sim_ms_per_job"}, []string{paperVIM}, []string{fleetAffinity}},
	{"vim.loads_elided_per_job", "count", "higher", []string{"sim_ms_per_job"}, []string{paperVIM}, []string{fleetAffinity}},

	{"copro.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, allWorkloads, nil},
	{"amba.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, []string{paperVIM}, nil},
	{"mem.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, []string{paperVIM}, nil},
	{"platform.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, serving, []string{paperVIM}},

	{"rcsched.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, []string{serveDeep}, nil},
	{"rcsched.serve_ms", "ms", "lower", []string{"jobs_per_s"}, []string{serveDeep}, nil},
	{"rcsched.reconfigs_per_job", "count", "lower", []string{"sim_goodput_rps", "sim_p99_latency_ms"}, serving, nil},
	{"rcsched.resident_dispatch_ratio", "fraction", "higher", []string{"sim_goodput_rps", "sim_p99_latency_ms"}, serving, nil},
	{"rcsched.stage_commits", "count", "higher", []string{"sim_goodput_rps", "sim_p99_latency_ms"}, serving, nil},
	{"rcsched.shed_ratio", "fraction", "lower", []string{"sim_goodput_rps", "sim_p99_latency_ms"}, serving, nil},
	{"rcsched.queue_wait_ms_sim", "ms", "lower", []string{"sim_goodput_rps", "sim_p99_latency_ms"}, serving, nil},
	{"rcsched.slot_util", "fraction", "higher", []string{"sim_goodput_rps", "sim_p99_latency_ms"}, serving, nil},

	{"fleet.route_ms", "ms", "lower", []string{"jobs_per_s"}, []string{fleetAffinity}, []string{serveDeep, paperVIM}},
	{"fleet.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, []string{fleetAffinity}, []string{serveDeep, paperVIM}},
	{"fleet.cpu_parallelism", "cpus", "higher", []string{"jobs_per_s"}, []string{fleetAffinity}, []string{serveDeep, paperVIM}},
	{"fleet.resident_route_ratio", "fraction", "higher", []string{"sim_goodput_rps"}, []string{fleetAffinity}, []string{serveDeep, paperVIM}},
	{"fleet.util_spread", "fraction", "lower", []string{"sim_goodput_rps"}, []string{fleetAffinity}, []string{serveDeep, paperVIM}},

	{"traffic.stream_ms", "ms", "lower", []string{"setup_s"}, serving, nil},

	{"runtime.cpu_share", "fraction", "lower", []string{"alloc_kb_per_job", "peak_heap_mb", "jobs_per_s"}, allWorkloads, nil},
	{"runtime.gc_per_job", "count", "lower", []string{"alloc_kb_per_job", "peak_heap_mb", "jobs_per_s"}, allWorkloads, nil},
	{"runtime.gc_pause_ms", "ms", "lower", []string{"alloc_kb_per_job", "peak_heap_mb", "jobs_per_s"}, allWorkloads, nil},

	{"other.cpu_share", "fraction", "lower", []string{"jobs_per_s"}, allWorkloads, nil},

	{"telemetry.cpu_share", "fraction", "lower", nil, nil, nil},
	{"telemetry.overhead_pct", "%", "lower", nil, nil, nil},
}

// cpuBuckets are the layers host CPU is attributed to; every pprof symbol
// lands in exactly one (see layerOf).
var cpuBuckets = []string{
	"sim", "core", "imu", "vim", "copro", "amba", "mem", "platform",
	"rcsched", "fleet", "runtime", "telemetry", "other",
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
