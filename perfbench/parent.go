package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// Children run one after another until their engine calls add up to
// -seconds, with at least minChildren of them (minPairs traced/untraced
// pairs in a traced run). Past softWall no new child starts once the
// minimum is met, and hardWall kills a child that would overrun the run's
// time limit.
const (
	minChildren = 3
	minPairs    = 2
	softWall    = 100 * time.Second
	hardWall    = 170 * time.Second
)

// childGOMAXPROCS is the parallelism every measurement runs at.
const childGOMAXPROCS = 2

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runParent spawns the children of one run, echoes their records and
// prints the result.
func runParent(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(hardWall))
	defer cancel()

	var recs []*record
	engine := 0.0
	for i := 0; !enough(o.trace, len(recs), engine, time.Since(start), o.seconds); i++ {
		rec, err := spawnChild(ctx, exe, o, i, o.trace && tracedTurn(i), stderr)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		fmt.Fprintf(stderr, "perfbench: %s child %d (traced=%v): %.0f %s/s over %.3f s, set-up %.4f s, peak RSS %.1f MB\n",
			o.workload, i, rec.Traced, rec.workPerS(), rec.WorkUnit, rec.RunS, rec.SetupS, rec.PeakRSSMB)
		recs = append(recs, rec)
		engine += rec.RunS
	}
	res, err := summarize(recs, o.trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// enough reports whether a run has measured enough after n children.
func enough(traced bool, n int, engine float64, elapsed time.Duration, seconds float64) bool {
	if traced {
		if n%2 == 1 || n < 2*minPairs {
			return false
		}
	} else if n < minChildren {
		return false
	}
	return engine >= seconds || elapsed >= softWall
}

// tracedTurn says whether child i of a traced run is the traced one of its
// pair. Pairs alternate which side runs first: U T, T U, U T, ...
func tracedTurn(i int) bool {
	return (i%2 == 1) != ((i/2)%2 == 1)
}

// spawnChild runs child i in a fresh process and parses its record.
func spawnChild(ctx context.Context, exe string, o options, i int, traced bool, stderr io.Writer) (*record, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	scale := "full"
	if o.tiny {
		scale = "tiny"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-child", strconv.Itoa(i),
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-trace", trace,
		"-scale", scale,
		"-revision", o.revision,
		"-spans", o.spans)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child %d: %w", o.workload, i, err)
	}
	rec := &record{}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), rec); err != nil {
		return nil, fmt.Errorf("%s child %d: bad record: %w", o.workload, i, err)
	}
	return rec, nil
}

// summarize folds the children's records into the run's result: medians
// over children for every metric, and every child's checks.
func summarize(recs []*record, traced bool) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	for _, r := range recs {
		for _, c := range r.Checks {
			res.Attempted++
			if !c.OK {
				res.Failed++
			}
		}
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no correctness checks ran")
	}
	res.Correct = res.Failed == 0

	put := func(defs []metricDef, name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(defs, name)}
		return nil
	}
	if !traced {
		var wps, setup, rss []float64
		for _, r := range recs {
			wps = append(wps, r.workPerS())
			setup = append(setup, r.SetupS)
			rss = append(rss, r.PeakRSSMB)
		}
		for _, kv := range []struct {
			name string
			v    float64
		}{
			{"work_per_s", median(wps)},
			{"setup_s", median(setup)},
			{"peak_rss_mb", median(rss)},
			{"ok_frac", float64(res.Attempted-res.Failed) / float64(res.Attempted)},
		} {
			if err := put(e2eMetrics, kv.name, kv.v); err != nil {
				return result{}, err
			}
		}
		return res, nil
	}

	var plain, armed []float64
	layers := map[string][]float64{}
	for _, r := range recs {
		if !r.Traced {
			plain = append(plain, r.workPerS())
			continue
		}
		armed = append(armed, r.workPerS())
		for name, v := range r.Layers {
			layers[name] = append(layers[name], v)
		}
	}
	if len(plain) == 0 || len(armed) == 0 {
		return result{}, fmt.Errorf("a traced run needs traced and untraced children")
	}
	layers["obs.overhead_frac"] = []float64{1 - median(armed)/median(plain)}
	for _, d := range layerMetrics {
		if err := put(layerMetrics, d.name, median(layers[d.name])); err != nil {
			return result{}, err
		}
	}
	return res, nil
}
