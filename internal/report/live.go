// Live summarization: the dashboard's in-memory twin of ReadTrace. The
// serve layer keeps a bounded obs.Ring per running job; SummarizeEvents
// folds that ring's retained tail through the same fold ReadTrace runs on
// a JSONL artifact, so the dashboard renders a running job with exactly
// the timeline/residency code dtmreport uses on finished ones.
package report

import "hybriddtm/internal/obs"

// SummarizeEvents aggregates an in-memory event slice (typically an
// obs.Ring snapshot) into a TraceSummary. Events holds the count of the
// slice actually summarized; callers holding a ring should overwrite it
// with Ring.Total() when they want the whole-run figure.
func SummarizeEvents(meta obs.Meta, events []obs.Event, name string) TraceSummary {
	sum := TraceSummary{
		File:      name,
		Schema:    obs.SchemaVersion,
		Benchmark: meta.Benchmark,
		Policy:    meta.Policy,
		Blocks:    meta.Blocks,
		Tally:     obs.Tally{Trigger: meta.Trigger, Emergency: meta.Emergency},
	}
	for i := range events {
		sum.fold(&events[i])
	}
	sum.Points = downsample(sum.Points, maxTimelinePoints)
	return sum
}

// downsample strides points down to at most limit samples.
func downsample(points []TracePoint, limit int) []TracePoint {
	if len(points) <= limit {
		return points
	}
	stride := (len(points) + limit - 1) / limit
	kept := points[:0]
	for i := 0; i < len(points); i += stride {
		kept = append(kept, points[i])
	}
	return kept
}
