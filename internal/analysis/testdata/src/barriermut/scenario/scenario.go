// Package scenario is the barriermut fixture: a Path that spans the whole
// cluster (its Cluster field and cell collection reach every shard) may be
// wired at build time and mutated from Cluster.At barrier actions, but
// never from in-window code — scheduled simulator callbacks or datapath
// Receive handlers — where every shard is advancing concurrently.
package scenario

import (
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/shard"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Cell wraps a single cluster cell: one shard-reaching field, so it does
// not span.
type Cell struct {
	Cell *shard.Cell
	Seen int
}

// Path spans more than one shard: the cluster plus all its cells.
type Path struct {
	Cluster *shard.Cluster
	Cells   []*Cell
	Epoch   int
}

// Reconfigure is itself window-reachable via badWindowMutation's scheduled
// call below, so its body write is flagged in addition to the call site.
func (p *Path) Reconfigure() { p.Epoch++ } // want `write to a field of Path from in-window code`

// buildCluster wires everything before the cluster runs: build-time code
// is not in-window, so none of this is flagged.
func buildCluster(ss []*sim.Simulator) *Path {
	c := shard.NewCluster()
	p := &Path{Cluster: c}
	for i, s := range ss {
		sh := c.AddShard("shard")
		cl := c.AddCell("cell", s, sh)
		_ = i
		p.Cells = append(p.Cells, &Cell{Cell: cl})
	}
	p.Epoch = 1
	return p
}

// scheduleHandover is the legal mutation path: barrier actions run between
// windows, when no shard is advancing.
func scheduleHandover(p *Path, at sim.Time) {
	p.Cluster.At(at, func() {
		p.Reconfigure()
		p.Epoch++
	})
}

// badWindowMutation reaches spanning state from a scheduled (in-window)
// callback.
func badWindowMutation(s *sim.Simulator, p *Path) {
	s.Schedule(0, func() {
		p.Reconfigure() // want `call to \(Path\)\.Reconfigure from in-window code`
	})
}

func badWindowFieldWrite(s *sim.Simulator, p *Path) {
	s.Schedule(0, func() {
		p.Epoch = 3 // want `write to a field of Path from in-window code`
	})
}

// bumpEpoch launders the write through a helper; window reachability
// closes over resolved calls.
func bumpEpoch(p *Path) {
	p.Epoch++ // want `write to a field of Path from in-window code`
}

func badWindowViaHelper(s *sim.Simulator, p *Path) {
	s.Schedule(0, func() {
		bumpEpoch(p)
	})
}

// badWindowClusterAt registers a barrier action from in-window code: the
// control plane is build-time or barrier-time only.
func badWindowClusterAt(s *sim.Simulator, c *shard.Cluster) {
	s.Schedule(0, func() {
		c.At(0, func() {}) // want `\(\*shard\.Cluster\)\.At from in-window code`
	})
}

// crossCellHook is a datapath Receive handler — in-window by definition —
// that grabs another cell's simulator.
type crossCellHook struct {
	other *shard.Cell
	n     int
}

func (h *crossCellHook) Receive(p *netem.Packet) {
	_ = h.other.Sim() // want `\(\*shard\.Cell\)\.Sim from in-window code`
	h.n++
}

// localHook only touches its own single-shard state: Cell-shaped wrappers
// do not span, so in-window mutation is fine.
type localHook struct{ n int }

func (h *localHook) Receive(p *netem.Packet) {
	h.n++
}

func suppressedWindowMutation(s *sim.Simulator, p *Path) {
	s.Schedule(0, func() {
		//lint:ignore barriermut fixture exercises suppressing the in-window report
		p.Epoch++
	})
}
