package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/experiments"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/parallel"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/shard"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// workload is one set of inputs the benchmark runs. run executes the
// setup, run and export phases once, through iter.phase.
type workload struct {
	name   string
	params string
	run    func(it *iter) error
}

var workloads = []workload{
	{
		name:   "sweep",
		params: fmt.Sprintf("every registered experiment at seed %d, scale %g, %d workers over experiments and %d per experiment's cells", sweepSeed, sweepScale, sweepWorkers, sweepWorkers),
		run:    runSweep,
	},
	{
		name:   "campus",
		params: "scenario.Campus: 100 APs x 1000 Zhuge RTP stations, 100 roams, 5 s virtual time, BuildSharded on 2 shards, 2 workers",
		run: scenarioLoad{
			spec: func(seed int64) scenario.Spec {
				return scenario.Campus(seed, scenario.CampusConfig{
					APs: 100, Stations: 1000, Roams: 100,
					Duration: campusDur, Solution: scenario.SolutionZhuge,
				})
			},
			dur: campusDur, shards: 2, workers: 2,
		}.run,
	},
	{
		name:   "longcall",
		params: "one Zhuge AP, 30 min virtual time: 4 RTP + 4 TCP/Copa stations (half own-queue), 1 on/off CUBIC bulk flow, 4 interferers; 1 shard, 1 worker",
		run:    scenarioLoad{spec: longcallSpec, dur: longcallDur, shards: 1, workers: 1}.run,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// sweepSeed is the experiments' seed in sweep: the seed of the
	// committed goldens, so every sweep run is checked against an exact
	// committed reference. --seed seeds sweep's set-up phase.
	sweepSeed    = 1
	sweepScale   = 0.02
	sweepWorkers = 2
	// sweepTraceDur is the trace length of the trace-driven experiments
	// (fig11, fig12) at sweepScale: their 30 s floor.
	sweepTraceDur = 30 * time.Second

	campusDur   = 5 * time.Second
	longcallDur = 30 * time.Minute
)

// output is one checked result: an experiment table or a flow's line of
// the scenario fingerprint, with its hash.
type output struct{ name, hash string }

// iter is one execution of a workload: its phase timings, the outputs to
// check, and, on traced iterations, the spans and layer values.
type iter struct {
	seed      int64
	tr        *tracer // nil when untraced
	setupOnly bool    // stop after the set-up phase
	cur       int     // span ID of the running phase
	wall, cpu time.Duration
	rss       float64 // peak resident set, MiB
	steal     float64 // host steal time over wall time × CPUs
	phases    [numPhases]phaseStat
	layers    map[string]float64
	outs      []output
}

type phaseStat struct {
	wall, cpu time.Duration
	rt        rtCounters
}

func (it *iter) traced() bool { return it.tr != nil }

// phase runs fn as phase p, charging it the wall time, the process CPU
// time and the runtime/metrics deltas.
func (it *iter) phase(p int, fn func()) {
	parent := it.cur
	it.cur = it.tr.begin(phaseNames[p], parent, 0)
	r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
	fn()
	it.phases[p] = phaseStat{wall: time.Since(t0), cpu: cpuTime() - c0, rt: readRuntime().sub(r0)}
	it.tr.end(it.cur)
	it.cur = parent
}

// span runs fn as a named call into a layer.
func (it *iter) span(name string, fn func()) {
	id := it.tr.begin(name, it.cur, 0)
	fn()
	it.tr.end(id)
}

// build runs a scenario build as the scenario.build span and, untraced,
// records what it allocated. fn returns the number of flows built.
func (it *iter) build(fn func() int) {
	r0 := readRuntime()
	var flows int
	it.span("scenario.build", func() { flows = fn() })
	if it.traced() {
		return // the traced run's allocations include the obs registries
	}
	b := readRuntime().sub(r0).allocBytes
	it.layers["scenario.build_alloc_mb"] = mib(b)
	if flows > 0 {
		it.layers["scenario.build_alloc_kb_per_flow"] = float64(b) / 1024 / float64(flows)
	}
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// runSweep runs every registered experiment at sweepSeed the way
// zhuge-bench -exp all -j 2 does: experiments fanned over the worker pool,
// each fanning its cells over the same worker count. Its setup phase
// builds, from the iteration's seed and outside any experiment, the inputs
// the trace-driven cells (fig11, fig12) build inside theirs: the standard
// traces and one path per trace and solution.
func runSweep(it *iter) error {
	exps := experiments.All()
	it.phase(phaseSetup, func() {
		var traces []*trace.Trace
		it.span("trace.gen", func() { traces = trace.StandardSet(sweepTraceDur, it.seed) })
		it.build(func() int {
			n := 0
			for _, tr := range traces {
				for _, s := range chaos.Solutions() {
					sp := scenario.Options{Seed: it.seed, Trace: tr, Solution: s.Sol, Qdisc: s.Qdisc}.Spec()
					sp.Flows = []scenario.FlowSpec{{Kind: s.Transport, CCA: s.CCA}}
					sp.Build()
					n++
				}
			}
			return n
		})
	})
	if it.setupOnly {
		return nil
	}

	cfg := experiments.Config{Seed: sweepSeed, Scale: sweepScale, Workers: sweepWorkers}
	if it.traced() {
		cfg.Obs = obs.NewSweep("")
	}
	tabs := make([]*experiments.Table, len(exps))
	it.phase(phaseRun, func() {
		cells := experiments.CellsRun()
		parallel.Map(sweepWorkers, len(exps), func(i int) {
			id := it.tr.begin("experiments."+exps[i].ID, it.cur, i+1)
			tabs[i] = exps[i].Run(cfg)
			it.tr.end(id)
		})
		it.layers["parallel.cells"] = float64(experiments.CellsRun() - cells)
	})

	var err error
	it.phase(phaseExport, func() {
		for i, t := range tabs {
			sum := sha256.Sum256([]byte(t.String()))
			it.outs = append(it.outs, output{exps[i].ID, hex.EncodeToString(sum[:])})
		}
		if cfg.Obs == nil {
			return
		}
		var buf bytes.Buffer
		var cells []obs.SweepCell
		if err = cfg.Obs.WriteJSON(&buf); err == nil {
			err = json.Unmarshal(buf.Bytes(), &cells)
		}
		counters := map[string]int64{}
		for _, c := range cells {
			for name, v := range c.Metrics.Counters {
				counters[name] += v
			}
		}
		modelCounts(it.layers, counters, nil)
	})
	return err
}

// scenarioLoad is a workload that builds one Spec with BuildSharded and
// runs it on a shard cluster.
type scenarioLoad struct {
	spec            func(seed int64) scenario.Spec // includes trace generation
	dur             time.Duration
	shards, workers int
}

func (w scenarioLoad) run(it *iter) error {
	opts := scenario.ShardedOptions{Shards: w.shards, CutDelay: scenario.CampusCutDelay}
	if it.traced() {
		opts.Obs = func(string) *obs.Obs { return obs.New(obs.Options{Metrics: true}) }
	}
	var spd *scenario.ShardedPath
	var err error
	it.phase(phaseSetup, func() {
		var sp scenario.Spec
		it.span("trace.gen", func() { sp = w.spec(it.seed) })
		it.build(func() int {
			spd, err = scenario.BuildSharded(sp, opts)
			return len(sp.Flows)
		})
	})
	if err != nil || it.setupOnly {
		return err
	}

	// The traced run times each shard's window with the shard package's
	// profiler, wrapped around the same pool executor Cluster.Run uses.
	var prof *shard.Profiler
	it.phase(phaseRun, func() {
		if !it.traced() {
			spd.Run(w.dur, w.workers)
			return
		}
		pool := parallel.NewPool(w.workers)
		defer pool.Close()
		start := time.Now()
		prof = spd.NewProfiler()
		prof.Clock = func() time.Duration { return time.Since(start) }
		spd.Cluster.RunWith(w.dur, prof.Wrap(it.spannedDo(pool.Do)))
	})
	run := it.phases[phaseRun].wall
	events := spd.Cluster.Fired()
	it.layers["sim.events"] = float64(events)
	it.layers["shard.windows"] = float64(spd.Cluster.Windows())
	if prof == nil {
		it.layers["sim.ns_per_event"] = float64(it.phases[phaseRun].cpu.Nanoseconds()) / float64(events)
	} else {
		it.layers["shard.critical_s"] = prof.Critical().Seconds()
		it.layers["shard.serial_s"] = prof.Serial().Seconds()
		it.layers["shard.barrier_s"] = (run - prof.Critical()).Seconds()
		it.layers["shard.par_eff"] = prof.Serial().Seconds() / (float64(w.workers) * run.Seconds())
	}

	it.phase(phaseExport, func() {
		for _, line := range strings.Split(strings.TrimSuffix(spd.Fingerprint(), "\n"), "\n") {
			sum := sha256.Sum256([]byte(line))
			it.outs = append(it.outs, output{flowName(line), hex.EncodeToString(sum[:4])})
		}
		if !it.traced() {
			return
		}
		counters := map[string]int64{}
		var flows []*scenario.BuiltFlow
		for _, c := range spd.Cells {
			for name, v := range c.Path.Spec.Obs.Reg.Snapshot().Counters {
				counters[name] += v
			}
			flows = append(flows, c.Path.Flows...)
		}
		modelCounts(it.layers, counters, flows)
	})
	return nil
}

// spannedDo wraps a barrier executor so every window and every shard's
// part of it is a span.
func (it *iter) spannedDo(do func(n int, fn func(i int))) func(n int, fn func(i int)) {
	parent := it.cur
	return func(n int, fn func(i int)) {
		win := it.tr.begin("shard.window", parent, 0)
		do(n, func(i int) {
			id := it.tr.begin("shard.exec", win, i+1)
			fn(i)
			it.tr.end(id)
		})
		it.tr.end(win)
	}
}

// flowName identifies a fingerprint line by its cell, flow kind and key.
func flowName(line string) string {
	f := strings.Fields(line)
	if len(f) > 3 {
		f = f[:3]
	}
	return strings.Join(f, " ")
}

// longcallSpec is one Zhuge AP carrying 4 RTP calls (in-band updater) and
// 4 TCP/Copa video flows (out-of-band updater) on their own stations,
// every other one with its own queue, next to an on/off CUBIC bulk flow on
// the primary station and 4 interferers on the channel.
func longcallSpec(seed int64) scenario.Spec {
	tr := trace.Generate(trace.OfficeWiFi(), longcallDur, sim.LabeledRand(seed, "longcall/ap0"))
	sp := scenario.Spec{Seed: seed, APs: []scenario.APSpec{{
		Name: "ap0", Trace: tr, Solution: scenario.SolutionZhuge, Interferers: 4,
	}}}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("sta%d", i+1)
		kind := "rtp"
		if i >= 4 {
			kind = "tcp"
		}
		sp.Stations = append(sp.Stations, scenario.StationSpec{Name: name, OwnQueue: i%2 == 0})
		sp.Flows = append(sp.Flows, scenario.FlowSpec{
			Kind: kind, Station: name, StartAt: time.Duration(i*137) * time.Millisecond,
		})
	}
	sp.Flows = append(sp.Flows, scenario.FlowSpec{Kind: "bulk", StartAt: 5 * time.Second, Period: 20 * time.Second})
	return sp
}

// modelCounts derives the model work counts from summed obs registry
// counters (instrument names end in a component-specific suffix) and, when
// the flows are reachable, their public accessors.
func modelCounts(layers map[string]float64, counters map[string]int64, flows []*scenario.BuiltFlow) {
	sum := func(suffix string) float64 {
		var n int64
		for name, v := range counters {
			if name == suffix || strings.HasSuffix(name, "."+suffix) {
				n += v
			}
		}
		return float64(n)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	enq, tail := sum("enqueued"), sum("dropped")
	layers["wireless.enqueued"] = enq
	layers["wireless.pkts_per_ampdu"] = ratio(sum("dequeued"), sum("aggregates"))
	layers["queue.drop_frac"] = ratio(tail+sum("aqm_front_drops"), enq+tail)
	pred := sum("ft.predictions")
	layers["core.ft_predictions"] = pred
	layers["core.ft_cache_hit_frac"] = ratio(sum("ft.cache_hits"), pred)
	layers["core.ib_constructed"] = sum("ib.constructed")
	layers["core.oob_acks"] = sum("oob.acks")
	for _, bf := range flows {
		if bf.RTP == nil {
			continue
		}
		layers["rtp.sent"] += float64(bf.RTP.Sender.SentPackets())
		layers["rtp.retransmits"] += float64(bf.RTP.Sender.Retransmits())
		layers["video.decoded"] += float64(bf.RTP.Decoder.Decoded)
		layers["video.skipped"] += float64(bf.RTP.Decoder.Skipped)
	}
}
