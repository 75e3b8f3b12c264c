package rcsched

import (
	"math"
	"testing"
)

// TestSummarizeTable pins the one serving-aggregate fold on hand-built job
// lists whose every value can be worked out on paper: the empty list, an
// all-rejected and an all-degraded stream, a single job (no arrival span, so
// no offered rate) and a mix of dispositions with and without deadlines.
// Every row compares the whole Summary exactly and rejects NaN anywhere.
func TestSummarizeTable(t *testing.T) {
	admitted := func(id int, arrival, latency, deadline float64) JobReport {
		done := arrival + latency
		return JobReport{ID: id, ArrivalPs: arrival, LatencyPs: latency, DonePs: done, DeadlinePs: deadline,
			Missed: deadline > 0 && done > deadline, Disposition: Admitted}
	}
	degraded := func(id int, arrival, latency, deadline float64) JobReport {
		j := admitted(id, arrival, latency, deadline)
		j.Slot, j.Disposition = -1, Degraded
		return j
	}
	rejected := func(id int, arrival, deadline float64) JobReport {
		return JobReport{ID: id, Slot: -1, ArrivalPs: arrival, DeadlinePs: deadline, DonePs: arrival,
			Disposition: Rejected}
	}
	cases := []struct {
		name string
		jobs []JobReport
		want Summary
	}{
		{"empty", nil, Summary{}},
		{
			"all rejected",
			[]JobReport{rejected(0, 1e9, 2e9), rejected(1, 2e9, 3e9), rejected(2, 3e9, 4e9)},
			Summary{Rejected: 3, ShedRate: 1, OfferedRPS: 2 * 1e12 / 3e9},
		},
		{
			"all degraded",
			[]JobReport{degraded(0, 0, 4e9, 5e9), degraded(1, 2e9, 6e9, 6e9)},
			Summary{
				MakespanPs: 8e9, P99LatencyPs: 6e9, Misses: 1, MissRate: 0.5,
				Degraded: 2, Completed: 2, GoodJobs: 1,
				OfferedRPS: 1e12 / 2e9, AchievedRPS: 2 * 1e12 / 8e9, GoodputRPS: 1e12 / 8e9,
			},
		},
		{
			"one job",
			[]JobReport{admitted(0, 1e9, 2e9, 0)},
			Summary{
				MakespanPs: 3e9, P99LatencyPs: 2e9, P99AdmittedPs: 2e9,
				Admitted: 1, Completed: 1, GoodJobs: 1,
				AchievedRPS: 1e12 / 3e9, GoodputRPS: 1e12 / 3e9,
			},
		},
		{
			"mixed deadlines",
			[]JobReport{
				admitted(0, 0, 1e9, 0),      // no deadline: good work
				admitted(1, 1e9, 3e9, 3e9),  // finishes at 4e9, past its 3e9 deadline
				rejected(2, 2e9, 2.5e9),     // shed: no latency, no makespan
				degraded(3, 4e9, 5e9, 10e9), // finishes at 9e9, in time
			},
			Summary{
				MakespanPs: 9e9, P99LatencyPs: 5e9, P99AdmittedPs: 3e9, Misses: 1, MissRate: 0.5,
				Admitted: 2, Degraded: 1, Rejected: 1, Completed: 3, GoodJobs: 2,
				OfferedRPS: 3 * 1e12 / 4e9, AchievedRPS: 3 * 1e12 / 9e9, GoodputRPS: 2 * 1e12 / 9e9,
				ShedRate: 0.25,
			},
		},
	}
	for _, c := range cases {
		got := Summarize(c.jobs)
		for _, v := range []float64{got.MakespanPs, got.P99LatencyPs, got.P99AdmittedPs, got.MissRate,
			got.OfferedRPS, got.AchievedRPS, got.GoodputRPS, got.ShedRate} {
			if math.IsNaN(v) {
				t.Errorf("%s: NaN in %+v", c.name, got)
				break
			}
		}
		if got != c.want {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, c.want)
		}
	}
}
