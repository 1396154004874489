package harness

import (
	"fmt"
	"io"

	"grouphash/internal/stats"
)

// The paper reports each result as "the average of five independent
// executions" (§4.1). RepeatLatency runs the same configuration under
// different seeds and aggregates each phase's latency, carrying the
// spread so reports can show run-to-run stability alongside the mean.

// RepeatedOpCost aggregates one phase's latency across executions.
type RepeatedOpCost struct {
	Latency stats.Summary
}

func (r *RepeatedOpCost) add(c OpCost) { r.Latency.Add(c.AvgLatencyNs) }

// RepeatedLatencyResult is a LatencyResult aggregated over executions.
type RepeatedLatencyResult struct {
	Scheme     string
	Trace      string
	LoadFactor float64
	Runs       int
	Insert     RepeatedOpCost
	Query      RepeatedOpCost
	Delete     RepeatedOpCost
}

// RepeatLatency executes cfg `runs` times with derived seeds (the
// paper's independent executions) and aggregates.
func RepeatLatency(cfg LatencyConfig, runs int) RepeatedLatencyResult {
	if runs < 1 {
		runs = 1
	}
	var out RepeatedLatencyResult
	out.Runs = runs
	for run := 0; run < runs; run++ {
		c := cfg
		c.Seed = cfg.Seed + int64(run)*7919
		c.Build.Seed = cfg.Build.Seed + uint64(run)*104729
		res := RunLatency(c)
		if run == 0 {
			out.Scheme, out.Trace, out.LoadFactor = res.Scheme, res.Trace, res.LoadFactor
		}
		out.Insert.add(res.Insert)
		out.Query.add(res.Query)
		out.Delete.add(res.Delete)
	}
	return out
}

// PrintRepeated renders an aggregated grid with mean ± stddev latency.
func PrintRepeated(w io.Writer, rows []RepeatedLatencyResult) {
	fmt.Fprintf(w, "Request latency, mean of independent executions (± stddev, ns simulated)\n\n")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s lf %.2f %-10s  insert %7.0f ±%-6.0f query %6.0f ±%-5.0f delete %7.0f ±%-6.0f (n=%d)\n",
			r.Trace, r.LoadFactor, r.Scheme,
			r.Insert.Latency.Mean(), r.Insert.Latency.Stddev(),
			r.Query.Latency.Mean(), r.Query.Latency.Stddev(),
			r.Delete.Latency.Mean(), r.Delete.Latency.Stddev(),
			r.Runs)
	}
}
