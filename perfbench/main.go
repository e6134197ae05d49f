// Command perfbench is niidbench's end-to-end benchmark. It runs one named
// federated workload for a fixed time, checks the run's output and prints
// the end-to-end metrics, or, with --trace 1, the per-layer metrics of a
// traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 960, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload paper-cnn --seed 1 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

// reference holds, per workload, the target accuracy and the values the
// correctness gate pins.
type reference struct {
	// Target is the accuracy time_to_target_s is measured against.
	Target float64 `json:"target"`
	// Floor is the lowest final accuracy any single federation may end at.
	Floor float64 `json:"floor"`
	// CommBytesPerRound is seed-independent: the wire moves fixed-size
	// frames (analytic bytes for the in-process simulation).
	CommBytesPerRound float64 `json:"comm_bytes_per_round"`
	// Pins holds the exact figures of the default and the held-out seed.
	Pins map[string]pin `json:"pins"`
}

// pin is what a run at one recorded seed must reproduce exactly.
type pin struct {
	FinalAcc float64 `json:"final_acc"`
	// TargetRounds is how many rounds the run's median accuracy curve
	// needs to reach the target, interpolated between rounds.
	TargetRounds float64 `json:"target_rounds"`
}

func loadReference(name string) (reference, error) {
	var all map[string]reference
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return reference{}, fmt.Errorf("reference.json: %w", err)
	}
	ref, ok := all[name]
	if !ok {
		return reference{}, fmt.Errorf("reference.json has no entry for %q", name)
	}
	if _, ok := ref.Pins[strconv.Itoa(defaultSeed)]; !ok {
		return reference{}, fmt.Errorf("reference.json pins no default seed for %q", name)
	}
	return ref, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name, unit string, v float64) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// checks accumulates correctness failures.
type checks struct{ failures []string }

func (c *checks) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: paper-cnn, tcp-silos or pipe-fleet-q")
	seed := flag.Uint64("seed", defaultSeed, "input seed; the workload's federations use seeds derived from it")
	seconds := flag.Float64("seconds", 30, "measure for at least this long")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory the trace spans are written to")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	ref, err := loadReference(w.name)
	if err != nil {
		return err
	}
	// One kernel worker per core at most: GOMAXPROCS never exceeds nproc.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	h := hostInfo()
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)

	budget := time.Duration(*seconds * float64(time.Second))
	rep := report{metrics: map[string]metric{}}
	var chk checks
	var attempted, failed int64
	if *trace == 0 {
		attempted, failed, err = untraced(w, ref, *seed, budget, &rep, &chk)
	} else {
		var tr *tracer
		tr, attempted, failed, err = traced(w, ref, *seed, budget, &rep, &chk)
		if tr != nil {
			if path, werr := tr.write(*out, w.name, *seed); werr != nil {
				chk.failf("write trace: %v", werr)
			} else {
				fmt.Printf("trace spans written to %s\n", path)
			}
		}
	}
	if err != nil {
		// A federation that errors is a failed run, not a crashed benchmark:
		// every update it attempted counts as failed.
		chk.failf("%v", err)
	}
	for _, n := range rep.names {
		if m := rep.metrics[n]; math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			chk.failf("metric %s is not finite", n)
			rep.metrics[n] = metric{Value: 0, Unit: m.Unit}
		}
	}
	for _, f := range chk.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	if !chk.ok() || failed > attempted {
		failed = attempted
	}
	if attempted < 1 {
		attempted, failed = 1, 1
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(result{Correct: chk.ok(), Attempted: attempted, Failed: failed, Metrics: rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// host is the block recorded beside every result.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func hostInfo() host {
	h := host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Dirty: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// run.sh passes the checkout's git state when there is one; an
	// exported tree without .git reports unknown.
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	if d := os.Getenv("PERFBENCH_DIRTY"); d != "" {
		h.Dirty = d
	}
	return h
}

// peakRSSMB reads the process's VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the round-time tail reported for a pool of n rounds:
// the highest whole percentile with at least ten rounds beyond it, capped
// at p90, because on a shared two-core host the rounds beyond p90 are
// mostly other tenants' scheduling and read differently run to run.
func tailPercentile(n int) int {
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	return max(50, min(90, p))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
