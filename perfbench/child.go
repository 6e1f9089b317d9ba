package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark input set. Its why is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	// unit names the simulated work that work_per_s counts.
	unit string
	new  func(tiny bool) instance
}

// instance is one child's run of a workload.
type instance interface {
	// params returns the workload parameters, for the record.
	params() any
	// setup builds the topology and generates the inputs from seed. A child
	// times it on several fresh instances and runs the last one.
	setup(seed int64, tr *tracer) error
	// run makes the one timed engine call and returns the simulated work it
	// completed. A non-nil tracer arms the counters the package exports.
	run(tr *tracer) (work int64, err error)
	// stats returns the run's simulated statistics.
	stats() any
	// checks evaluates the correctness checks on the run's result.
	checks() []check
	// probe times the calls into each layer the workload depends on (traced
	// runs only) and returns the per-layer metrics the workload fills.
	probe(tr *tracer) (map[string]float64, error)
}

// check is one correctness check on a run's output. Simulated failures
// (timed-out RPCs, dropped packets, partitions) are what the workloads
// study; a check fails only when the program's accounting is wrong.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func expect(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// provenance identifies the program and machine that produced a record.
type provenance struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Revision   string `json:"revision"`
}

// record is what a child prints: one measurement with its provenance.
type record struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Child      int        `json:"child"`
	InputSeed  int64      `json:"input_seed"`
	Traced     bool       `json:"traced"`
	Provenance provenance `json:"provenance"`
	Params     any        `json:"params"`
	Stats      any        `json:"stats"`
	Checks     []check    `json:"checks"`
	// Work is the simulated work the engine call completed, in WorkUnit.
	Work     int64  `json:"work"`
	WorkUnit string `json:"work_unit"`
	// RunS is the host time of the engine call.
	RunS float64 `json:"run_s"`
	// SetupS is the median host time of the SetupReps repeated set-ups.
	SetupS    float64 `json:"setup_s"`
	SetupReps int     `json:"setup_reps"`
	// SetupPeakRSSMB is VmHWM after the set-up repetitions and PeakRSSMB
	// after the engine call, so a record shows which phase set the peak.
	SetupPeakRSSMB float64 `json:"setup_peak_rss_mb"`
	PeakRSSMB      float64 `json:"peak_rss_mb"`
	// Layers and SelfS are filled by traced runs only.
	Layers map[string]float64 `json:"layers,omitempty"`
	SelfS  map[string]float64 `json:"self_s,omitempty"`
	Spans  string             `json:"spans,omitempty"`
}

// workPerS is the record's simulated work per host second.
func (r *record) workPerS() float64 {
	if r.RunS <= 0 {
		return 0
	}
	return float64(r.Work) / r.RunS
}

// Set-up repeats until it has taken setupBudget and at least minSetupReps
// runs, so its median is taken over enough work to repeat within a tenth
// even for set-ups of a millisecond.
const (
	setupBudget  = 300 * time.Millisecond
	minSetupReps = 3
	maxSetupReps = 200
)

// childSeed derives child i's input seed from the run seed.
func childSeed(seed int64, child int) int64 {
	return seed*1000 + int64(child)
}

// settle collects garbage and returns freed memory to the OS, so a timed
// phase starts from the same heap state in every child.
func settle() {
	debug.FreeOSMemory()
}

// runChild performs one measurement and prints its record.
func runChild(o options, stdout io.Writer) error {
	w := lookupWorkload(o.workload)
	inst := w.new(o.tiny)
	rec := &record{
		Workload:  w.name,
		Seed:      o.seed,
		Child:     o.child,
		InputSeed: childSeed(o.seed, o.child),
		Traced:    o.trace,
		Provenance: provenance{
			Go:         runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Revision:   o.revision,
		},
		Params:   inst.params(),
		WorkUnit: w.unit,
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Each repetition starts from a fresh instance, so the previous one's
	// topology and inputs are garbage by the time settle collects: only one
	// set of inputs is ever live, as in a single real run.
	var setups []float64
	var spent time.Duration
	for len(setups) < maxSetupReps && (len(setups) < minSetupReps || spent < setupBudget) {
		inst = w.new(o.tiny)
		settle()
		id := tr.begin("setup")
		start := time.Now()
		err := inst.setup(rec.InputSeed, tr)
		d := time.Since(start)
		tr.end(id, 0)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		spent += d
		setups = append(setups, d.Seconds())
	}
	rec.SetupS, rec.SetupReps = median(setups), len(setups)
	var err error
	if rec.SetupPeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}

	settle()
	var gc0 gcCPU
	if tr != nil {
		gc0 = readGCCPU()
	}
	stopProfile, err := startCPUProfile(o.cpuProfile)
	if err != nil {
		return err
	}
	start := time.Now()
	work, err := inst.run(tr)
	rec.RunS = time.Since(start).Seconds()
	if perr := stopProfile(); perr != nil {
		return perr
	}
	if err != nil {
		return fmt.Errorf("%s run: %w", w.name, err)
	}
	rec.Work = work
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}

	if tr != nil {
		gcFrac := readGCCPU().fracSince(gc0)
		layers, err := inst.probe(tr)
		if err != nil {
			return fmt.Errorf("%s probe: %w", w.name, err)
		}
		layers["go.gc_cpu_frac"] = gcFrac
		rec.Layers = completeLayers(layers)
		rec.SelfS = tr.selfTimes()
		name := fmt.Sprintf("%s-seed%d-child%d.jsonl", w.name, o.seed, o.child)
		if rec.Spans, err = tr.write(o.spans, name); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	rec.Checks = inst.checks()
	rec.Stats = inst.stats()

	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// startCPUProfile starts profiling into path (nothing when path is empty)
// and returns the function that stops it.
func startCPUProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// completeLayers returns every per-layer metric, zero where the workload
// does not exercise the layer, and panics on a name outside layerMetrics:
// that is a bug in a workload's probe.
func completeLayers(got map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = 0
	}
	for name, v := range got {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("perfbench: probe reported unknown layer metric %q", name))
		}
		out[name] = v
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// gcCPU is the runtime's estimate of CPU spent on garbage collection and
// in total (GOMAXPROCS times wall time). The runtime folds both in at the
// end of each collection, so their ratio covers whole GC cycles.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// fracSince is the share of CPU spent on GC between prev and c.
func (c gcCPU) fracSince(prev gcCPU) float64 {
	if d := c.total - prev.total; d > 0 {
		return (c.gc - prev.gc) / d
	}
	return 0
}
