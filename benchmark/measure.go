package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Phases of one workload iteration. Their wall times must sum to the
// iteration's wall time (the reconciliation gate).
const (
	phaseSetup = iota
	phaseRun
	phaseExport
	numPhases
)

var phaseNames = [numPhases]string{"setup", "run", "export"}

// rtCounters are the runtime/metrics counters a phase is charged with.
type rtCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64 // seconds
}

var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtCounters {
	var s [len(rtNames)]metrics.Sample
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return rtCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal returns the CPU time the hypervisor gave to other guests,
// summed over all CPUs (/proc/stat; 0 where the kernel reports none). A
// repetition during which it grew ran on a slower machine.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// resetPeakRSS lowers VmHWM to the current resident set, so the next
// peakRSSMB reads the peak of what ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	name       string
	id, parent int
	track      int // display lane: experiment index or shard
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced iterations pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, track: track, start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// totals sums span durations by name over spans[from:], in seconds.
func (t *tracer) totals(from int) map[string]float64 {
	out := map[string]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans[from:] {
		out[s.name] += (s.end - s.start).Seconds()
	}
	return out
}

// writeChrome writes the spans in Chrome trace_event format (open it in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.track,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
