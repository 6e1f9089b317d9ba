package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady reads the bounds from BENCHMARK.json in the working directory
// (the repository root), runs every workload n times, alternating the workload order
// from round to round and giving each run its own seed, then prints each
// end-to-end metric's median, quartiles and spread against a third of its
// bound: the steadiness a benchmark run needs before two sets of runs can
// be compared within the bounds.
func runSteady(o options, n int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	seconds := strconv.Itoa(bench.RunSeconds)
	// Each run's full output (child records and result) is kept for later
	// inspection next to the span files.
	outDir := filepath.Join(filepath.Dir(o.spans), "steady")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> per-run values
	for round := 0; round < n; round++ {
		for k := range names {
			name := names[k]
			if round%2 == 1 {
				name = names[len(names)-1-k]
			}
			seed := o.seed + int64(round)
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", seconds, "-trace", "0", "-revision", o.revision)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = io.Discard
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			keep := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
			if err := os.WriteFile(keep, out.Bytes(), 0o644); err != nil {
				return err
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: bad result: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d checks failed", name, seed, res.Failed, res.Attempted)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, v := range res.Metrics {
				values[name][metric] = append(values[name][metric], v.Value)
			}
			fmt.Fprintf(stderr, "steady: round %d %s seed %d done\n", round, name, seed)
		}
	}

	fmt.Fprintf(stdout, "%-22s %-12s %14s %14s %14s %8s %8s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound/3", "")
	for _, name := range names {
		for _, m := range bench.EndToEnd {
			vs := values[name][m.Name]
			q1, med, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := "ok"
			if spread >= m.Bound/3 {
				verdict = "TOO WIDE"
			}
			fmt.Fprintf(stdout, "%-22s %-12s %14.6g %14.6g %14.6g %8.4f %8.4f  %s\n",
				name, m.Name, med, q1, q3, spread, m.Bound/3, verdict)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so the figures match the check the benchmark is held to.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		v := median(xs)
		return v, v, v
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
