package analysis

import (
	"go/ast"
	"go/types"
)

// BarrierMut enforces the sharded cluster's mutation protocol: state that
// spans more than one shard may only be mutated from *barrier* context —
// the Cluster.At callbacks that run on the barrier executor between
// windows (the Zhuge handover path in scenario.BuildSharded is the
// canonical example) — never from *in-window* code. While a window
// executes, every shard's simulator is advancing concurrently on its own
// goroutine; in-window code touching a structure that reaches other
// shards (their simulators, topologies, observers) is a data race whose
// visible symptom is byte-divergent output between -shards 1 and
// -shards 8.
//
// The analyzer computes, over the whole-program call graph:
//
//   - the in-window closure: function literals and function values handed
//     to the simulator's scheduling API ((*sim.Simulator).At / After /
//     Schedule / ScheduleAfter), datapath Receive(*netem.Packet) handlers,
//     and everything they transitively call through resolved edges;
//
// and flags, inside that closure:
//
//  1. method calls on *spanning types* — named struct types outside
//     package shard that can reach state on more than one shard: a
//     *shard.Cluster field, a collection whose elements reach shards, or
//     two or more distinct shard-reaching fields (scenario.ShardedPath
//     qualifies; a single-shard cell wrapper does not);
//  2. direct field writes through a spanning-typed value;
//  3. calls to the cluster control plane from in-window code:
//     (*shard.Cluster).At / Run / RunWith / RunProfiled / AddShard /
//     AddCell / Connect and (*shard.Cell).Sim — wiring, barrier
//     registration and runs are build-time or top-level operations, and
//     grabbing another cell's simulator mid-window is exactly the
//     cross-shard mutation hatch this analyzer exists to close.
//
// Package shard itself is exempt (it *implements* the protocol), and
// without a Program (nil Prog) the analyzer reports nothing — the
// in-window closure is inherently interprocedural.
var BarrierMut = &Analyzer{
	Name: "barriermut",
	Doc: "require mutations of shard-spanning state (cluster wiring, cross-cell structures) " +
		"to run in barrier context (Cluster.At), never from in-window scheduled or datapath code",
	Run: runBarrierMut,
}

// clusterControlMethods are the (*shard.Cluster) entry points that are
// build-time or barrier-executor operations.
var clusterControlMethods = map[string]bool{
	"At": true, "Run": true, "RunWith": true, "RunProfiled": true,
	"AddShard": true, "AddCell": true, "Connect": true,
}

func runBarrierMut(pass *Pass) error {
	if pass.Pkg.Name() == "shard" || pass.Prog == nil {
		return nil
	}
	win := pass.Prog.WindowReachable()
	check := func(node *FuncNode) {
		if node == nil || !win[node] {
			return
		}
		inspectOwn(node, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.CallExpr:
				checkWindowCall(pass, x)
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					checkWindowWrite(pass, l)
				}
			case *ast.IncDecStmt:
				checkWindowWrite(pass, x.X)
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				check(pass.Prog.DeclNode(d))
			case *ast.FuncLit:
				check(pass.Prog.LitNode(d))
			}
			return true
		})
	}
	return nil
}

func checkWindowCall(pass *Pass, call *ast.CallExpr) {
	fn := StaticCallee(pass.TypesInfo, call)
	if fn != nil {
		if funcIsMethodOn(fn, "shard", "Cluster") && clusterControlMethods[fn.Name()] {
			pass.Reportf(call.Pos(),
				"(*shard.Cluster).%s from in-window code: cluster wiring and barrier registration belong to build time or barrier actions; while a window runs, every shard is advancing concurrently", fn.Name())
			return
		}
		if funcIsMethodOn(fn, "shard", "Cell") && fn.Name() == "Sim" {
			pass.Reportf(call.Pos(),
				"(*shard.Cell).Sim from in-window code: reaching another cell's simulator mid-window mutates state its resident shard's executor owns; do it in a Cluster.At barrier action")
			return
		}
	}
	// Method call on a spanning type.
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selinfo, ok := pass.TypesInfo.Selections[sel]
	if !ok || selinfo.Kind() != types.MethodVal {
		return
	}
	if pass.Prog.SpansShards(selinfo.Recv()) {
		named, _ := derefNamed(selinfo.Recv())
		pass.Reportf(call.Pos(),
			"call to (%s).%s from in-window code: %s spans more than one shard, so its methods may only run in barrier context (Cluster.At) or before the cluster starts",
			named.Obj().Name(), sel.Sel.Name, named.Obj().Name())
	}
}

// checkWindowWrite flags direct field writes through a spanning-typed
// value (sp.Cells[i].X = v, sp.field++ ...).
func checkWindowWrite(pass *Pass, lhs ast.Expr) {
	for {
		switch x := unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil && pass.Prog.SpansShards(t) {
				named, _ := derefNamed(t)
				pass.Reportf(lhs.Pos(),
					"write to a field of %s from in-window code: it spans more than one shard and may only be mutated in barrier context (Cluster.At)",
					named.Obj().Name())
				return
			}
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return
		}
	}
}
