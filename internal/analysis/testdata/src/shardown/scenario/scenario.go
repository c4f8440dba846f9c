// Package scenario is the interprocedural half of the shardown fixture:
// it imports the real shard package and exercises rule 2 —
// (*shard.Edge).Send must not be reachable from barrier context
// (Cluster.At callbacks), directly or laundered through helpers, while
// in-window code the barrier merely *schedules* stays legal.
package scenario

import (
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/shard"
)

// wireBadHandover sends directly from the barrier action.
func wireBadHandover(c *shard.Cluster, e *shard.Edge, dst netem.Receiver) {
	c.At(0, func() {
		e.Send(netem.NewPacket(), dst) // want `Edge\.Send reachable from barrier context`
	})
}

// forward launders the send one call deep; reachability closes over it.
func forward(e *shard.Edge, dst netem.Receiver) {
	e.Send(netem.NewPacket(), dst) // want `Edge\.Send reachable from barrier context`
}

func wireBadHandoverVia(c *shard.Cluster, e *shard.Edge, dst netem.Receiver) {
	c.At(0, func() {
		forward(e, dst)
	})
}

// wireGoodHandover is the legal pattern: the barrier action only
// *schedules* in-window work; the scheduled literal runs on the cell's
// resident shard executor inside the next window, where Send is its
// birthright.
func wireGoodHandover(c *shard.Cluster, cl *shard.Cell, e *shard.Edge, dst netem.Receiver) {
	c.At(0, func() {
		cl.Sim().Schedule(0, func() {
			e.Send(netem.NewPacket(), dst)
		})
	})
}

func wireSuppressed(c *shard.Cluster, e *shard.Edge, dst netem.Receiver) {
	c.At(0, func() {
		//lint:ignore shardown fixture exercises suppressing the barrier-context report
		e.Send(netem.NewPacket(), dst)
	})
}
