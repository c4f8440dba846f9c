package analysis

import (
	"go/ast"
	"go/types"
)

// ShardOwn enforces the single-producer/single-consumer discipline of the
// shard layer's edge rings. The parallel cluster (internal/shard) is
// correct only under a strict ownership protocol:
//
//   - each Edge's SPSC ring has exactly one producer — the owning source
//     shard's executor, pushing in-window through (*Edge).Send — and
//     exactly one consumer — the barrier executor, draining between
//     windows inside (*Cluster).drainEdges;
//   - the ring implementation's push/drain/pending are therefore private
//     protocol: push may only appear inside (*Edge).Send, drain and
//     pending only inside *Cluster methods.
//
// Violating either side is a data race that the ring's unsynchronized
// fast path turns into lost or duplicated parcels — output then depends
// on shard interleaving and the byte-identical gate (-shards 1 vs 8)
// breaks only under load, long after the edit that caused it.
//
// Three rules:
//
//  1. (packages named "shard", i.e. the protocol implementation and its
//     fixtures) calls to ring.push outside (*Edge).Send, or ring.drain /
//     ring.pending outside a *Cluster method, are flagged.
//  2. (everywhere, interprocedural) (*Edge).Send must not be reachable
//     from barrier context — a Cluster.At callback runs on the barrier
//     executor between windows, where pushing onto a ring races the
//     epilogue drain. Uses the Program's barrier-reachability closure;
//     literals the callback schedules onto a simulator run in-window
//     later and are correctly exempt.
//  3. (everywhere) (*Edge).Send must not appear inside a go statement:
//     a spawned goroutine is never the owning shard's executor.
//
// Ownership *identity* — that in-window code on shard A only sends on
// edges whose source is A — is dynamic (edges are wired at Connect time)
// and remains the runtime gate's job; what this analyzer pins down
// statically is the execution-context half of the protocol.
var ShardOwn = &Analyzer{
	Name: "shardown",
	Doc: "enforce SPSC edge-ring ownership: ring.push only via (*Edge).Send, " +
		"drains only on the barrier executor, no Edge.Send from barrier actions or goroutines",
	Run: runShardOwn,
}

func runShardOwn(pass *Pass) error {
	if pass.Pkg.Name() == "shard" {
		checkRingConfinement(pass)
	}
	checkSendFromGoroutines(pass)
	if pass.Prog != nil {
		checkSendFromBarrier(pass)
	}
	return nil
}

// checkRingConfinement applies rule 1 inside the protocol package itself.
func checkRingConfinement(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv, name := declRecvType(pass, fd), fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := StaticCallee(pass.TypesInfo, call)
				if fn == nil || !funcIsMethodOn(fn, "shard", "ring") {
					return true
				}
				switch fn.Name() {
				case "push":
					if recv != "Edge" || name != "Send" {
						pass.Reportf(call.Pos(),
							"ring.push outside (*Edge).Send: the SPSC ring's producer side belongs exclusively to the owning shard's in-window Send path; any other producer races it")
					}
				case "drain", "pending":
					if recv != "Cluster" {
						pass.Reportf(call.Pos(),
							"ring.%s outside a *Cluster method: the consumer side of an edge ring belongs exclusively to the barrier executor (drainEdges between windows)", fn.Name())
					}
				}
				return true
			})
		}
	}
}

// declRecvType returns the receiver's named type for a method declaration
// ("" for plain functions).
func declRecvType(pass *Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func isEdgeSend(info *types.Info, call *ast.CallExpr) bool {
	fn := StaticCallee(info, call)
	return fn != nil && fn.Name() == "Send" && funcIsMethodOn(fn, "shard", "Edge")
}

// checkSendFromGoroutines applies rule 3: any Edge.Send lexically under a
// go statement (including inside the spawned literal) is a producer that
// is not the owning shard's executor.
func checkSendFromGoroutines(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			ast.Inspect(g, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isEdgeSend(pass.TypesInfo, call) {
					pass.Reportf(call.Pos(),
						"Edge.Send from a spawned goroutine: only the owning shard's executor may produce onto an SPSC edge ring; a goroutine racing it corrupts the ring")
				}
				return true
			})
			return false
		})
	}
}

// checkSendFromBarrier applies rule 2: walk every function of this package
// that the Program proves reachable from barrier context and flag Edge.Send
// calls in its own body.
func checkSendFromBarrier(pass *Pass) {
	reach := pass.Prog.BarrierReachable()
	check := func(node *FuncNode) {
		if node == nil || !reach[node] {
			return
		}
		inspectOwn(node, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && isEdgeSend(pass.TypesInfo, call) {
				pass.Reportf(call.Pos(),
					"Edge.Send reachable from barrier context (a Cluster.At callback): barrier actions run on the barrier executor between windows, where producing onto an edge ring races the epilogue drain; move the send into scheduled in-window code")
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
}
