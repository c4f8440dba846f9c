package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

func TestRingFIFOAndGrowth(t *testing.T) {
	var r ring
	const n = 4*ringCap + 100 // force several geometric growth steps
	for i := 0; i < n; i++ {
		r.push(Parcel{At: sim.Time(i)})
	}
	if got := r.pending(); got != n {
		t.Fatalf("pending = %d, want %d", got, n)
	}
	if len(r.buf) < n || len(r.buf)&(len(r.buf)-1) != 0 {
		t.Fatalf("buf grew to %d, want a power of two >= %d", len(r.buf), n)
	}
	var got []sim.Time
	r.drain(func(p Parcel) { got = append(got, p.At) })
	if len(got) != n {
		t.Fatalf("drained %d parcels, want %d", len(got), n)
	}
	for i, at := range got {
		if at != sim.Time(i) {
			t.Fatalf("parcel %d has At %d: FIFO order broken across growth", i, at)
		}
	}
	if r.pending() != 0 {
		t.Fatal("drain did not reset the ring")
	}
	// The ring must be reusable after a drain, at its grown capacity.
	r.push(Parcel{At: 42})
	r.drain(func(p Parcel) {
		if p.At != 42 {
			t.Fatalf("post-drain parcel At = %d, want 42", p.At)
		}
	})
}

// TestRingGrowthMidstream grows while head is far from zero, so the
// re-laying in grow has to translate wrapped positions correctly.
func TestRingGrowthMidstream(t *testing.T) {
	var r ring
	next := 0
	popped := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.push(Parcel{At: sim.Time(next)})
			next++
		}
	}
	drainAll := func() {
		r.drain(func(p Parcel) {
			if p.At != sim.Time(popped) {
				t.Fatalf("popped At %d, want %d", p.At, popped)
			}
			popped++
		})
	}
	push(ringCap - 3) // nearly fill
	drainAll()        // head == tail == ringCap-3: wrapped state
	push(3 * ringCap) // burst forces growth with nonzero head
	drainAll()
	if popped != next {
		t.Fatalf("popped %d of %d parcels", popped, next)
	}
}

// cellPair builds a two-shard cluster with one cell on each and a pair of
// cut edges, the canonical fixture for protocol tests.
func cellPair(t *testing.T) (c *Cluster, a, b *Cell, ab, ba *Edge) {
	t.Helper()
	c = NewCluster()
	sa := c.AddShard("sa")
	sb := c.AddShard("sb")
	a = c.AddCell("a", sim.New(1), sa)
	b = c.AddCell("b", sim.New(2), sb)
	var err error
	ab, err = c.Connect("a->b", a, b, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ba, err = c.Connect("b->a", b, a, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return c, a, b, ab, ba
}

func TestZeroLookaheadRejected(t *testing.T) {
	c := NewCluster()
	a := c.AddCell("a", sim.New(1), c.AddShard("sa"))
	b := c.AddCell("b", sim.New(2), c.AddShard("sb"))
	for _, d := range []time.Duration{0, -time.Millisecond} {
		if _, err := c.Connect("cut", a, b, d); err == nil {
			t.Fatalf("Connect with delay %v succeeded, want error", d)
		} else if !strings.Contains(err.Error(), "lookahead") {
			t.Fatalf("error %q does not explain the lookahead requirement", err)
		}
	}
	if _, err := c.Connect("cut", a, b, time.Millisecond); err != nil {
		t.Fatalf("positive delay rejected: %v", err)
	}
	if l, ok := c.Lookahead(); !ok || l != time.Millisecond {
		t.Fatalf("Lookahead = %v, %v; want 1ms, true", l, ok)
	}
}

// exchange builds two single-cell shards ping-ponging packets over a pair
// of edges and returns the delivery log: b's lines, then a's. Each cell
// logs to its own slice — the two shards run concurrently inside a window,
// so only per-cell order is defined. Used both for protocol checks and for
// the worker-count determinism gate.
func exchange(t *testing.T, workers int) []string {
	t.Helper()
	c, a, b, ab, ba := cellPair(t)

	var logA, logB []string
	// b echoes every arrival straight back; a records the round trip.
	bIn := netem.ReceiverFunc(func(p *netem.Packet) {
		logB = append(logB, fmt.Sprintf("b got seq %d at %v", p.Seq, b.Sim().Now()))
		echo := netem.NewPacket()
		echo.Seq = p.Seq
		p.Release()
		var aIn netem.Receiver
		aIn = netem.ReceiverFunc(func(q *netem.Packet) {
			logA = append(logA, fmt.Sprintf("a got seq %d at %v", q.Seq, a.Sim().Now()))
			q.Release()
		})
		ba.Send(echo, aIn)
	})
	for i := 0; i < 10; i++ {
		seq := uint64(i)
		at := time.Duration(i) * time.Millisecond
		a.Sim().Schedule(at, func() {
			p := netem.NewPacket()
			p.Seq = seq
			ab.Send(p, bIn)
		})
	}
	// A barrier action at 7ms observing both clocks in lockstep. It runs
	// between windows, so it may write a's log.
	c.At(7*time.Millisecond, func() {
		logA = append(logA, fmt.Sprintf("action at a=%v b=%v", a.Sim().Now(), b.Sim().Now()))
	})
	// An event exactly at the horizon must still fire (RunUntil semantics).
	a.Sim().Schedule(30*time.Millisecond, func() { logA = append(logA, "horizon event") })

	c.Run(30*time.Millisecond, workers)
	if c.Windows() == 0 {
		t.Fatal("cluster granted no windows")
	}
	if c.Fired() == 0 {
		t.Fatal("no events fired")
	}
	return append(logB, logA...)
}

func TestClusterProtocol(t *testing.T) {
	log := exchange(t, 1)
	// 10 sends -> 10 b-arrivals at send+5ms, 10 a-echoes at +8ms, one
	// action line, one horizon line.
	if len(log) != 22 {
		t.Fatalf("log has %d lines, want 22:\n%s", len(log), strings.Join(log, "\n"))
	}
	var sawB, sawA int
	for _, l := range log {
		switch {
		case strings.HasPrefix(l, "b got seq"):
			want := fmt.Sprintf("b got seq %d at %v", sawB, time.Duration(sawB)*time.Millisecond+5*time.Millisecond)
			if l != want {
				t.Fatalf("line %q, want %q", l, want)
			}
			sawB++
		case strings.HasPrefix(l, "a got seq"):
			want := fmt.Sprintf("a got seq %d at %v", sawA, time.Duration(sawA)*time.Millisecond+8*time.Millisecond)
			if l != want {
				t.Fatalf("line %q, want %q", l, want)
			}
			sawA++
		case strings.HasPrefix(l, "action"):
			if l != "action at a=7ms b=7ms" {
				t.Fatalf("barrier action saw desynchronised clocks: %q", l)
			}
		}
	}
	if sawB != 10 || sawA != 10 {
		t.Fatalf("deliveries b=%d a=%d, want 10/10", sawB, sawA)
	}
	if log[len(log)-1] != "horizon event" {
		t.Fatalf("last line %q, want the horizon event", log[len(log)-1])
	}
}

// TestWorkerCountInvisible is the package-local determinism gate: the same
// cluster advanced by 1 worker and by 4 workers must produce an identical
// delivery log.
func TestWorkerCountInvisible(t *testing.T) {
	seq := exchange(t, 1)
	par := exchange(t, 4)
	if len(seq) != len(par) {
		t.Fatalf("log lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("line %d differs:\n  1 worker:  %q\n  4 workers: %q", i, seq[i], par[i])
		}
	}
}

// TestEdgeBurstBeyondInitialCap drives far more than ringCap parcels down
// one edge inside a single window; every one must arrive, in order.
func TestEdgeBurstBeyondInitialCap(t *testing.T) {
	c, a, b, ab, _ := cellPair(t)
	_ = b
	const n = ringCap + 300
	var got []uint64
	bIn := netem.ReceiverFunc(func(p *netem.Packet) {
		got = append(got, p.Seq)
		p.Release()
	})
	// All sends at t=1ms: one event, n pushes, all inside one window.
	a.Sim().Schedule(time.Millisecond, func() {
		for i := 0; i < n; i++ {
			p := netem.NewPacket()
			p.Seq = uint64(i)
			ab.Send(p, bIn)
		}
	})
	c.Run(20*time.Millisecond, 2)
	if len(got) != n {
		t.Fatalf("delivered %d parcels, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("parcel %d has seq %d: burst order broken", i, seq)
		}
	}
}
