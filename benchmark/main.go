// Command benchmark is the repository's end-to-end benchmark. It drives
// the experiments, scenario, shard and sim packages through their public
// functions on one workload, times every phase and layer from the outside
// (it changes no program code), checks every output against a recorded
// reference, and prints one JSON result line last. Run it from the
// repository root through benchmark/run.sh; -h prints the usage.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

const usageText = `usage: bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. run.sh builds this command from the
checkout's sources into .bench_build/ (or $CARGO_TARGET_DIR) and runs it.

Workloads:
  sweep     every registered experiment at seed 1, scale 0.02, 2 workers
            (zhuge-bench -exp all -j 2); tables checked against the goldens;
            --seed seeds its set-up phase
  campus    100 APs x 1000 Zhuge RTP stations, 100 roams, 5 s virtual time,
            2 shards on 2 workers
  longcall  one Zhuge AP for 30 min virtual time: 4 RTP + 4 TCP/Copa
            stations, an on/off CUBIC bulk flow, 4 interferers

Run one workload (end-to-end metrics, tracing off):
  bash benchmark/run.sh --workload campus --seed 1 --seconds 30
The run first sets up alone (up to 25 times or a tenth of --seconds),
then repeats the workload until --seconds would be exceeded (at least
twice); each metric is the median over the repetitions, setup_s over
every set-up.

The traced run (per-layer metrics):
  bash benchmark/run.sh --workload campus --seed 1 --seconds 30 --trace 1
alternates untraced and traced repetitions. Traced repetitions record
spans around every call into a layer, a CPU profile and the obs registry
counters; spans go to .bench_build/spans-<workload>-seed<N>.json (Chrome
trace format). bench.tracing_overhead_frac compares their run phase with
the untraced one.

Reading the output: the end-to-end table (printed in both modes, from
untraced repetitions) gives median, quartiles and spread (IQR / median).
setup_s, run_s and cpu_s are process CPU seconds (user+sys, all threads)
of the set-up phase, the run phase and the whole repetition; they are the
gated metrics because they leave out the time the hypervisor gives to
other guests. The wall-clock times follow them (wall_s, setup_wall_s,
run_wall_s, export_wall_s); setup + run + export wall must equal wall_s
within 5% (else the run fails). host_steal_frac is the share of the
machine's CPU time the hypervisor gave to other guests during the
repetitions: wall-clock times taken while it is high are slow because the
host was busy, not the program. The layer table's rows are grouped by
the phase they explain: trace.*, scenario.* and setup.* explain setup_s;
sim.*, shard.*, experiments.*, parallel.* and run.* explain run_s;
cpu.*_frac say which module the CPU went to; the model counts
(wireless.* ... video.*) are deterministic per seed, so a change there
means the model changed. A layer the workload does not drive reads 0.
benchmark/README.md maps each layer metric to the end-to-end metric and
workload it should move.

Every output is checked: sweep tables against the committed goldens,
campus and longcall per-flow fingerprints against benchmark/refs.json.
For a seed with no reference the repetitions are checked against each
other and the fingerprint is printed.

Flags:
`

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep, campus or longcall")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "measure for this many seconds")
		traceOn = flag.Int("trace", 0, "1 = the traced run (per-layer metrics)")
		root    = flag.String("root", ".", "repository root")
		out     = flag.String("out", ".bench_build", "directory for spans and fingerprints")
		record  = flag.String("record", "", "record reference fingerprints for this seed range (e.g. 0-20) into "+refsFile)
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usageText)
		flag.PrintDefaults()
	}
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *record != "" {
		err = recordRefs(w, *root, *record)
	} else {
		err = bench(w, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, *root, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runIteration executes the workload once, after returning the previous
// iteration's memory to the OS so every iteration starts alike; it.rss is
// the iteration's own peak. With setupOnly it stops after the set-up phase.
func runIteration(w workload, seed int64, tr *tracer, setupOnly bool) (*iter, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	it := &iter{seed: seed, tr: tr, cur: -1, setupOnly: setupOnly, layers: map[string]float64{}}
	var prof bytes.Buffer
	first := 0
	if tr != nil {
		first = tr.len()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	it.cur = tr.begin("iteration", -1, 0)
	c0, s0, t0 := cpuTime(), hostSteal(), time.Now()
	runErr := w.run(it)
	it.wall, it.cpu = time.Since(t0), cpuTime()-c0
	it.steal = float64(hostSteal()-s0) / (float64(it.wall) * float64(runtime.NumCPU()))
	tr.end(it.cur)
	it.cur = -1
	var rssErr, profErr error
	it.rss, rssErr = peakRSSMB()
	if tr != nil {
		pprof.StopCPUProfile()
		var fr map[string]float64
		fr, profErr = moduleFractions(prof.Bytes())
		for m, f := range fr {
			it.layers["cpu."+m+"_frac"] = f
		}
		for n, s := range tr.totals(first) {
			it.layers[n+"_s"] = s
		}
	} else {
		for p, ps := range it.phases {
			n := phaseNames[p]
			it.layers[n+".alloc_mb"] = mib(ps.rt.allocBytes)
			it.layers[n+".allocs"] = float64(ps.rt.allocObjects)
			it.layers[n+".gc_cycles"] = float64(ps.rt.gcCycles)
			it.layers[n+".gc_cpu_s"] = ps.rt.gcCPU
		}
	}
	return it, errors.Join(runErr, rssErr, profErr)
}

// setupSamples caps the set-up-only repetitions that open a run.
const setupSamples = 25

// bench runs the workload for the time budget and prints the report.
func bench(w workload, seed int64, budget time.Duration, traced bool, root, out string) error {
	refs, err := loadRefs(root)
	if err != nil {
		return err
	}
	want, haveRef, err := refs.reference(root, w.name, seed)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var (
		e2e       = map[string][]float64{}
		layerVals = map[string][]float64{}
		tracedRun []float64
		attempted int
		failed    int
		gateErrs  []string
		first     []output
		reconcile float64
	)
	start := time.Now()
	// setup_s is a median over many set-ups: besides the one in every
	// repetition, the run first sets up alone until setupSamples set-ups
	// or a tenth of the budget have been spent, whichever comes first.
	for n := 0; n < setupSamples && (n == 0 || time.Since(start) < budget/10); n++ {
		it, err := runIteration(w, seed, nil, true)
		if err != nil {
			return err
		}
		e2e["setup_s"] = append(e2e["setup_s"], it.phases[phaseSetup].cpu.Seconds())
	}
	for i := 0; ; i++ {
		itTracer := (*tracer)(nil)
		if traced && i%2 == 1 {
			itTracer = tr
		}
		it, err := runIteration(w, seed, itTracer, false)
		if err != nil {
			return err
		}

		ref := want
		if !haveRef {
			ref = hashes(first) // repetitions must agree with the first
		}
		if haveRef || i > 0 {
			a, f, msgs := check(w.name, it.outs, ref)
			attempted += a
			failed += f
			for _, m := range msgs {
				fmt.Fprintf(os.Stderr, "FAIL seed=%d iteration=%d %s\n", seed, i, m)
			}
		} else {
			first = it.outs
		}

		rec, errs := gates(it)
		reconcile = math.Max(reconcile, rec)
		for _, e := range errs {
			gateErrs = append(gateErrs, fmt.Sprintf("iteration %d: %s", i, e))
		}

		if it.traced() {
			tracedRun = append(tracedRun, it.phases[phaseRun].wall.Seconds())
		} else {
			e2e["setup_s"] = append(e2e["setup_s"], it.phases[phaseSetup].cpu.Seconds())
			e2e["run_s"] = append(e2e["run_s"], it.phases[phaseRun].cpu.Seconds())
			e2e["cpu_s"] = append(e2e["cpu_s"], it.cpu.Seconds())
			e2e["wall_s"] = append(e2e["wall_s"], it.wall.Seconds())
			e2e["setup_wall_s"] = append(e2e["setup_wall_s"], it.phases[phaseSetup].wall.Seconds())
			e2e["run_wall_s"] = append(e2e["run_wall_s"], it.phases[phaseRun].wall.Seconds())
			e2e["export_wall_s"] = append(e2e["export_wall_s"], it.phases[phaseExport].wall.Seconds())
			e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], it.rss)
			e2e["host_steal_frac"] = append(e2e["host_steal_frac"], it.steal)
		}
		for k, v := range it.layers {
			layerVals[k] = append(layerVals[k], v)
		}
		fmt.Fprintf(os.Stderr, "iteration %d traced=%t wall=%.3fs setup=%.3fs run=%.3fs export=%.3fs cpu=%.3fs steal=%.1f%%\n",
			i, it.traced(), it.wall.Seconds(), it.phases[phaseSetup].wall.Seconds(),
			it.phases[phaseRun].wall.Seconds(), it.phases[phaseExport].wall.Seconds(), it.cpu.Seconds(), 100*it.steal)
		if i >= 1 && time.Since(start)+it.wall > budget {
			break
		}
	}
	if !haveRef {
		printFingerprint(w.name, seed, first, out)
	}
	fmt.Printf("workload %s (%s), seed %d\n", w.name, w.params, seed)
	printE2E(e2e, attempted, failed)

	metrics := map[string]metricValue{}
	if traced {
		runMed := summarize(e2e["run_wall_s"]).median
		layerVals["bench.tracing_overhead_frac"] = []float64{summarize(tracedRun).median/runMed - 1}
		layerVals["bench.reconcile_err_frac"] = []float64{reconcile}
		for _, d := range perLayer() {
			v := 0.0
			if vs := layerVals[d.Name]; len(vs) > 0 {
				v = summarize(vs).median
			}
			metrics[d.Name] = metricValue{v, d.Unit}
		}
		printLayers(metrics)
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := tr.writeChrome(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = metricValue{summarize(e2e[d.Name]).median, d.Unit}
		}
	}
	for _, g := range gateErrs {
		fmt.Fprintln(os.Stderr, "GATE", g)
	}
	res, err := json.Marshal(result{
		Correct: failed == 0 && len(gateErrs) == 0, Attempted: attempted, Failed: failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// gates checks an iteration's accounting: its phases must sum to its wall
// time within 5% (it returns how far apart they are), and the CPU shares
// of the listed modules to at most 1.
func gates(it *iter) (reconcile float64, errs []string) {
	var sum time.Duration
	for _, p := range it.phases {
		sum += p.wall
	}
	reconcile = math.Abs(float64(sum-it.wall)) / float64(it.wall)
	if reconcile > 0.05 {
		errs = append(errs, fmt.Sprintf("setup+run+export = %v, wall = %v (%.1f%% apart, limit 5%%)", sum, it.wall, 100*reconcile))
	}
	var fracs float64
	for _, m := range modules {
		fracs += it.layers["cpu."+m+"_frac"]
	}
	if fracs > 1+1e-9 {
		errs = append(errs, fmt.Sprintf("cpu.*_frac sum to %.4f > 1", fracs))
	}
	return reconcile, errs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printE2E(e2e map[string][]float64, attempted, failed int) {
	fmt.Printf("\n%-16s %-6s %12s %12s %12s %8s %3s\n", "end-to-end", "unit", "median", "q1", "q3", "spread", "n")
	units := map[string]string{"peak_rss_mb": "MiB", "host_steal_frac": "ratio"}
	for _, n := range []string{"setup_s", "run_s", "cpu_s", "peak_rss_mb",
		"wall_s", "setup_wall_s", "run_wall_s", "export_wall_s", "host_steal_frac"} {
		unit := units[n]
		if unit == "" {
			unit = "s"
		}
		s := summarize(e2e[n])
		fmt.Printf("%-16s %-6s %12.4f %12.4f %12.4f %7.1f%% %3d\n", n, unit, s.median, s.q1, s.q3, 100*s.spread(), s.n)
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	fmt.Printf("%-16s %-6s %12.4f   (%d of %d output checks failed)\n\n", "failed_frac", "ratio", frac, failed, attempted)
}

func printLayers(m map[string]metricValue) {
	fmt.Printf("%-36s %-6s %16s\n", "per-layer", "unit", "value")
	for _, d := range perLayer() {
		fmt.Printf("%-36s %-6s %16.6g\n", d.Name, d.Unit, m[d.Name].Value)
	}
	fmt.Println()
}

// printFingerprint prints the combined fingerprint of an unreferenced
// seed and writes the per-output hashes next to it, so two commits can be
// diffed.
func printFingerprint(workload string, seed int64, outs []output, dir string) {
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "%s %s\n", o.hash, o.name)
	}
	sum := sha256.Sum256([]byte(b.String()))
	path := filepath.Join(dir, fmt.Sprintf("fingerprint-%s-seed%d.txt", workload, seed))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: fingerprint:", err)
		path = "(not written)"
	}
	fmt.Printf("no reference for %s seed %d; fingerprint sha256 %s, per-output hashes in %s\n",
		workload, seed, hex.EncodeToString(sum[:]), path)
}

// recordRefs runs the workload once per seed of the range and records its
// output hashes in refsFile. Sweep has none: the committed goldens are its
// reference.
func recordRefs(w workload, root, seeds string) error {
	if w.name == "sweep" {
		return fmt.Errorf("sweep is checked against %s; regenerate that with goldengen", goldenFile)
	}
	lo, hi, ok := strings.Cut(seeds, "-")
	if !ok {
		hi = lo
	}
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("bad -record range %q", seeds)
	}
	refs, err := loadRefs(root)
	if err != nil {
		return err
	}
	if refs[w.name] == nil {
		refs[w.name] = map[string][]string{}
	}
	for seed := from; seed <= to; seed++ {
		it, err := runIteration(w, seed, nil, false)
		if err != nil {
			return err
		}
		refs[w.name][strconv.FormatInt(seed, 10)] = hashes(it.outs)
		fmt.Fprintf(os.Stderr, "recorded %s seed %d (%d outputs, %.1fs)\n", w.name, seed, len(it.outs), it.wall.Seconds())
	}
	return refs.save(root)
}
