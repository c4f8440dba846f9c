package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestAttributeModules(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"github.com/zhuge-project/zhuge/internal/transport/rtp.(*Sender).SendFrame"}, "rtp"},
		// Runtime frames below a repository frame are charged to it.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc",
			"github.com/zhuge-project/zhuge/internal/transport/rtp.NewSender",
			"github.com/zhuge-project/zhuge/internal/scenario.(*Path).AddRTPFlow"}, "rtp"},
		{[]string{"github.com/zhuge-project/zhuge/internal/sim.(*Simulator).RunUntil.func1"}, "sim"},
		{[]string{"github.com/zhuge-project/zhuge/internal/parallel.Sweep[go.shape.struct { a/b.c int }]"}, "parallel"},
		// GC work counts as gc wherever it interrupts.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "github.com/zhuge-project/zhuge/internal/netem.NewPacket"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, ""},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestModuleFractionsDecodesProfile hand-encodes a profile.proto with an
// inlined frame and both packed and unpacked repeated fields.
func TestModuleFractionsDecodesProfile(t *testing.T) {
	strs := []string{"",
		"github.com/zhuge-project/zhuge/internal/transport/rtp.(*Sender).send",
		"runtime.memclrNoHeapPointers",
		"github.com/zhuge-project/zhuge/internal/sim.(*Simulator).Step",
		"runtime.gcBgMarkWorker",
	}
	var p []byte
	// Functions 1..4 named by string index.
	for id := uint64(1); id <= 4; id++ {
		p = pbMsg(p, 5, pbVarint(pbVarint(nil, 1, id), 2, id))
	}
	// Location 1: memclr inlined into rtp send (innermost line first).
	line := func(fn uint64) []byte { return pbVarint(nil, 1, fn) }
	p = pbMsg(p, 4, pbMsg(pbMsg(pbVarint(nil, 1, 1), 4, line(2)), 4, line(1)))
	p = pbMsg(p, 4, pbMsg(pbVarint(nil, 1, 2), 4, line(3)))
	p = pbMsg(p, 4, pbMsg(pbVarint(nil, 1, 3), 4, line(4)))
	// Samples: 3 in rtp (packed fields), 1 in sim (unpacked), 4 in gc.
	p = pbMsg(p, 2, pbMsg(pbMsg(nil, 1, packed(1, 2)), 2, packed(3, 30e6)))
	p = pbMsg(p, 2, pbVarint(pbVarint(pbVarint(nil, 1, 2), 2, 1), 2, 10e6))
	p = pbMsg(p, 2, pbMsg(pbMsg(nil, 1, packed(3)), 2, packed(4, 40e6)))
	for _, s := range strs {
		p = pbMsg(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := moduleFractions(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"rtp": 3.0 / 8, "sim": 1.0 / 8, "gc": 4.0 / 8}
	var sum float64
	for _, m := range modules {
		if math.Abs(got[m]-want[m]) > 1e-12 {
			t.Errorf("%s fraction = %v, want %v", m, got[m], want[m])
		}
		sum += got[m]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	if _, err := moduleFractions([]byte("not gzip")); err == nil {
		t.Error("garbage profile decoded without error")
	}
}

func pbVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbMsg(b []byte, field int, msg []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}
