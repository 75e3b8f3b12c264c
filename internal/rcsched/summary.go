package rcsched

import (
	"sort"

	"repro/internal/stats"
)

// Summary is the set of serving aggregates every report over a job stream
// carries. A single board's Report and the fleet's merged report both embed
// it, and Summarize is its one definition.
type Summary struct {
	// MakespanPs is the hardware-timeline instant of the last completion.
	MakespanPs float64

	// P99LatencyPs is the nearest-rank 99th-percentile latency over the
	// jobs that completed (rejected jobs never complete; an empty
	// completion set reports an explicit 0). P99AdmittedPs restricts the
	// percentile to slot-served jobs — the population whose tail admission
	// control promises to bound. Misses/MissRate count completed jobs that
	// finished after their deadline, over the completed jobs that carry
	// one.
	P99LatencyPs  float64
	P99AdmittedPs float64
	Misses        int
	MissRate      float64

	// Admission-control aggregates. Admitted/Degraded/Rejected partition
	// the stream by disposition (admission off: everything Admitted).
	// Completed counts jobs that produced output (admitted + degraded);
	// GoodJobs are completions that met their deadline (deadline-free
	// completions count — any finished job is useful work). OfferedRPS is
	// the stream's arrival rate over its arrival span; AchievedRPS and
	// GoodputRPS are completions, respectively deadline-met completions,
	// per second of makespan. ShedRate is the rejected fraction of the
	// whole stream.
	Admitted    int
	Degraded    int
	Rejected    int
	Completed   int
	GoodJobs    int
	OfferedRPS  float64
	AchievedRPS float64
	GoodputRPS  float64
	ShedRate    float64
}

// Summarize folds the job reports of one stream into its Summary; the
// order of jobs does not matter. Aggregates run over the completed
// population — rejected jobs never produced output, so folding their zero
// latencies in would flatter every percentile — and each divided quantity
// is an explicit zero when its denominator is empty (an empty list and an
// all-rejected stream included), never NaN.
func Summarize(jobs []JobReport) Summary {
	var s Summary
	var lats, admLats []float64
	deadlined := 0
	lastArrivalPs := 0.0
	for i := range jobs {
		j := &jobs[i]
		if j.ArrivalPs > lastArrivalPs {
			lastArrivalPs = j.ArrivalPs
		}
		switch j.Disposition {
		case Rejected:
			s.Rejected++
			continue
		case Degraded:
			s.Degraded++
		default:
			s.Admitted++
			admLats = append(admLats, j.LatencyPs)
		}
		s.Completed++
		lats = append(lats, j.LatencyPs)
		if j.DonePs > s.MakespanPs {
			s.MakespanPs = j.DonePs
		}
		if j.DeadlinePs > 0 {
			deadlined++
			if j.Missed {
				s.Misses++
				continue
			}
		}
		s.GoodJobs++ // deadline met, or no SLO: any completion is useful work
	}
	sort.Float64s(lats)
	sort.Float64s(admLats)
	s.P99LatencyPs = stats.NearestRank(lats, 0.99)
	s.P99AdmittedPs = stats.NearestRank(admLats, 0.99)
	if deadlined > 0 {
		s.MissRate = float64(s.Misses) / float64(deadlined)
	}
	if len(jobs) > 0 {
		s.ShedRate = float64(s.Rejected) / float64(len(jobs))
	}
	if len(jobs) > 1 && lastArrivalPs > 0 {
		s.OfferedRPS = float64(len(jobs)-1) * 1e12 / lastArrivalPs
	}
	if s.MakespanPs > 0 {
		s.AchievedRPS = float64(s.Completed) * 1e12 / s.MakespanPs
		s.GoodputRPS = float64(s.GoodJobs) * 1e12 / s.MakespanPs
	}
	return s
}
