// Command perfbench is the EFES benchmark. It generates one workload's
// inputs from a seed, drives them through the entry points users call
// (the in-process estimation pipeline and efesd over loopback HTTP),
// checks every answer, and prints the metrics, last of all as one JSON
// line:
//
//	perfbench --workload paper-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 a
// separate traced run prints the per-layer metrics and writes its spans
// to the work directory. See NOTES.md for the workloads and the metric
// map.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

// endToEnd are the metrics of the result line of an untraced run; every
// workload reports each of them.
var endToEnd = []string{"setup_s", "op_p50_ms", "ops_per_s", "cpu_ms_per_op", "peak_heap_mb"}

// env is one run's configuration.
type env struct {
	seed    int64
	seconds float64
	work    string    // working directory of this run, removed at its end
	rec     *recorder // nil in untraced runs
	lat     offHeap   // latency samples of client goroutines, released when the run returns
}

func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

var workloads = map[string]func(*env) (*report, tally, error){
	"paper-cold":   runPaperCold,
	"daemon-warm":  runDaemonWarm,
	"daemon-churn": runDaemonChurn,
}

func main() {
	name := flag.String("workload", "", "workload: paper-cold, daemon-warm or daemon-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	workDir := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs, caches and spans")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*workDir, fmt.Sprintf("%s-%d-", *name, *seed))
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: *seconds, work: work}
	if *trace == 1 {
		e.rec = newRecorder()
	}
	rep, t, err := run(e)
	e.lat.release()
	if err == nil && e.rec != nil {
		err = e.rec.write(filepath.Join(*workDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed)))
	}
	if rerr := os.RemoveAll(work); err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	out := result{Correct: t.bad() == 0, Attempted: t.attempted, Failed: t.bad(), Metrics: rep.metrics}
	if e.rec == nil {
		out.Metrics = rep.pick(endToEnd)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	rep.print()
	fmt.Println(out.line())
	if !out.Correct || out.Attempted == 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// repeatSetup runs build setupRepeats times and returns the median
// duration in seconds.
func repeatSetup(build func() error) (float64, error) {
	var s samples
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		s = append(s, time.Since(t0).Seconds())
	}
	return s.median(), nil
}

// processMetrics reports CPU use and garbage collection over a phase.
func processMetrics(rep *report, d procDelta) {
	rep.set("process.cpu_per_wall", d.cpu/d.wall, "ratio")
	rep.set("process.gc_cycles", float64(d.gcs), "count")
	rep.set("process.gc_pause_ms", d.pauseMs, "ms")
}

// daemonCountsAbsent reports the efesd layer as idle on a workload that
// sends it no request.
func daemonCountsAbsent(rep *report) {
	for _, n := range []string{"efesd.serve_upload_ms", "efesd.serve_estimate_ms", "efesd.serve_profile_ms",
		"efesd.serve_match_ms", "efesd.transport_ms"} {
		rep.set(n, 0, "ms")
		rep.notes[n] = "no efesd traffic in this workload"
	}
	for _, n := range []string{"efesd.shed", "efesd.result_hits", "efesd.result_misses", "efesd.scenarios_evicted"} {
		rep.set(n, 0, "count")
	}
}
