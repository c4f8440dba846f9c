package main

import "testing"

func TestGatesRejectUnreconciledIteration(t *testing.T) {
	it := &iter{wall: 100, layers: map[string]float64{"cpu.sim_frac": 0.6, "cpu.gc_frac": 0.3}}
	it.phases[phaseSetup].wall, it.phases[phaseRun].wall, it.phases[phaseExport].wall = 20, 77, 1
	if rec, errs := gates(it); len(errs) != 0 || !near(rec, 0.02) {
		t.Errorf("phases 2%% short of wall: reconcile %v, errors %v; want 0.02 and none", rec, errs)
	}
	it.phases[phaseRun].wall = 70
	it.layers["cpu.rtp_frac"] = 0.2
	if _, errs := gates(it); len(errs) != 2 {
		t.Errorf("phases 9%% short and CPU shares summing to 1.1: errors %v, want 2", errs)
	}
}
