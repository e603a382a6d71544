package main

// Metrics and the result line.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Samples is how many measurements the value summarizes (0: a
	// single reading).
	Samples int
	// Note says what the value is, for the human-readable table.
	Note string
}

// result is one run's outcome.
type result struct {
	Workload  string
	Metrics   []metric
	Attempted int
	Failed    int
	// Errors lists the failures (truncated when printed).
	Errors []string
	// Invalid, when set, says why the run measured the generator
	// rather than matchd.
	Invalid string
	// Lines are extra human-readable report lines.
	Lines []string
}

func (r *result) add(name, unit string, v float64, samples int, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples, Note: note})
}

func (r *result) fail(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

func (r *result) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and the run is valid.
func (r *result) correct() bool { return r.Failed == 0 && r.Invalid == "" }

// metricValue is the JSON form of one metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable report and then the result line.
func (r *result) write(out io.Writer) error {
	fmt.Fprintf(out, "workload %s\n", r.Workload)
	for _, l := range r.Lines {
		fmt.Fprintln(out, l)
	}
	for _, m := range r.Metrics {
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(out, "  %-34s %14.4f %-6s%s  %s\n", m.Name, m.Value, m.Unit, samples, m.Note)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "  %-34s %14.6f %-6s  (%d of %d operations failed, refused or wrong)\n", "error_ratio", ratio, "ratio", r.Failed, r.Attempted)
	for i, e := range r.Errors {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more failures\n", len(r.Errors)-10)
			break
		}
		fmt.Fprintf(out, "  FAIL %s\n", e)
	}
	if r.Invalid != "" {
		fmt.Fprintf(out, "  INVALID run: %s\n", r.Invalid)
	}
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// quantile returns the q-quantile (nearest rank) of ds; ds is sorted
// in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

// median returns the median (nearest rank) of ds, sorting it.
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// medianFloat returns the median (nearest rank) of vs, sorting it.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[(len(vs)-1)/2]
}

// meanFloat returns the mean of vs.
func meanFloat(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t / float64(max(len(vs), 1))
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
