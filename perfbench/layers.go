package main

import (
	"math"
	"time"
)

// reconRow is one layer on a round's blocking path: how often it runs per
// round, what one call costs in the replay, and the wall time it takes per
// round once divided over the workers that run it in parallel. Child rows
// are contained in their parent and do not add to the total.
type reconRow struct {
	layer string
	calls float64
	usPer float64
	ms    float64
	depth int
}

// reconcile splits round_ms_p50 into the replayed layers on the workload's
// blocking path plus the unattributed residual (scheduling, the event heap,
// wire time, GC and anything no replayed layer covers).
func reconcile(engine string, in *inputs, L *layers, uploadsPerRound, p50 float64) (rows []reconRow, residual float64) {
	n, p, dim := float64(len(in.clients)), float64(in.workers), float64(L.dim)
	u := uploadsPerRound
	add := func(layer string, calls, usPer, lanes float64, depth int) {
		rows = append(rows, reconRow{layer: layer, calls: calls, usPer: usPer, ms: calls * usPer / lanes / 1000, depth: depth})
	}
	perCoord := func(ns float64) float64 { return ns * dim / 1000 }
	steps := n * L.stepsPerClient
	add("fl.LocalTrainProx", n, L.localTrainUs, p, 0)
	add("nn train step: Forward+loss+Backward+SGDStep", steps, L.stepUs, p, 1)
	add("tensor GEMM products", steps, L.gemmUsPerStep, p, 2)
	switch engine {
	case "sim":
		add("fl.CheckUpload", n, L.checkUploadUs, p, 0)
		add("core.SignAgreement (relevance trace)", n, perCoord(L.signNsPerCoord), p, 0)
		add("compress.EncodeInto (worker: payload size)", u, perCoord(L.encodeNsPerCoord), p, 0)
		add("compress.EncodeInto (aggregation loop)", u, perCoord(L.encodeNsPerCoord), 1, 0)
		add("compress.DecodeInto (aggregation loop)", u, perCoord(L.decodeNsPerCoord), 1, 0)
		add("tensor.Axpy (FedAvg fold)", u, perCoord(L.axpyNsPerCoord), 1, 0)
	case "fl":
		add("fl.CheckUpload", n, L.checkUploadUs, p, 0)
		add("core.SignAgreement (relevance trace)", n, perCoord(L.signNsPerCoord), p, 0)
		add("tensor.Axpy (FedAvg fold)", u, perCoord(L.axpyNsPerCoord), 1, 0)
		add("held-out evaluation (nn.Network.Forward)", 1, L.evalMs*1000, 1, 0)
	case "emu":
		add("fl.UploadFilter.Check", n, L.checkUploadUs, p, 0)
		add("compress.EncodeInto (client)", u, perCoord(L.encodeNsPerCoord), p, 0)
		add("compress.DecodeInto (client error feedback)", u, perCoord(L.decodeNsPerCoord), p, 0)
		add("compress.DecodeInto (shard)", u, perCoord(L.decodeNsPerCoord), p, 0)
		add("shard.Accumulator.Add (shard)", u, perCoord(L.foldNsPerCoord), p, 0)
		add("shard.Accumulator Merge+Round (root)", 1, perCoord(L.mergeRoundNsPerCoord), 1, 0)
		add("held-out evaluation, last round only", 1/float64(in.rounds), L.evalMs*1000, 1, 0)
	}
	residual = p50
	for _, r := range rows {
		if r.depth == 0 {
			residual -= r.ms
		}
	}
	return rows, residual
}

// clientStepUs is the replayed cost of one client's work in a round: what
// an engine worker is busy with between taking a client and the gate's
// decision (plus the worker-side codec work after it).
func clientStepUs(engine string, L *layers, passRatio float64) float64 {
	step := L.localTrainUs + L.checkUploadUs
	dim := float64(L.dim)
	switch engine {
	case "sim":
		step += (L.signNsPerCoord + passRatio*L.encodeNsPerCoord) * dim / 1000
	case "fl":
		step += L.signNsPerCoord * dim / 1000
	case "emu":
		step += passRatio * (L.encodeNsPerCoord + L.decodeNsPerCoord) * dim / 1000
	}
	return step
}

// workerIdleShare is 1 − Σ client-step time ÷ (workers × training-phase
// wall), averaged over the traced episode's rounds. The training phase runs
// from the round's start to its last gate decision; the step time is the
// replayed per-client cost, so the share is computed from the schedule.
func workerIdleShare(tr *tracer, clients, lanes int, stepUs float64) float64 {
	phaseEnd := make([]int64, tr.rounds+1)
	for _, s := range tr.spans {
		if s.Name == spanGate && s.Parent >= 1 && s.Parent <= tr.rounds && s.End > phaseEnd[s.Parent] {
			phaseEnd[s.Parent] = s.End
		}
	}
	var sum float64
	var n int
	for r := 1; r <= tr.rounds; r++ {
		wall := float64(phaseEnd[r] - tr.spans[r].Start)
		if wall <= 0 {
			continue
		}
		busy := float64(clients) * stepUs * float64(time.Microsecond)
		sum += 1 - busy/(float64(lanes)*wall)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// traceSummary is what the traced episodes counted at the engine seams.
type traceSummary struct {
	decisions, passes, encodes, uploads int64
	wall, untracedWall                  []float64
}

func (s traceSummary) passRatio() float64 {
	if s.decisions == 0 {
		return math.NaN()
	}
	return float64(s.passes) / float64(s.decisions)
}

func summarizeTraces(eps []*episode) traceSummary {
	var s traceSummary
	for _, ep := range eps {
		if len(ep.failures) > 0 {
			continue
		}
		if !ep.traced {
			s.untracedWall = append(s.untracedWall, ep.phase.Seconds())
			continue
		}
		s.wall = append(s.wall, ep.phase.Seconds())
		s.decisions += ep.tr.decisions.Load()
		s.passes += ep.tr.passes.Load()
		s.encodes += ep.tr.encodes.Load()
		for _, e := range ep.events {
			s.uploads += int64(e.Uploaded)
		}
	}
	return s
}

// perLayerMetrics assembles the per-layer metrics of a traced run, and the
// printed-only figures of layers only some engines have.
func perLayerMetrics(w workload, in *inputs, eps []*episode, last *episode, L *layers, residual float64) (declared, extra metricSet) {
	ts := summarizeTraces(eps)
	var clientRounds int64
	var rt runtimeDelta
	var late, dups, rejoins int
	var wire, appUp int64
	var rounds float64
	for _, ep := range eps {
		if ep.traced || len(ep.failures) > 0 {
			continue
		}
		clientRounds += int64(ep.clientRounds)
		rt.gcCPU += ep.rt.gcCPU
		rt.totalCPU += ep.rt.totalCPU
		rt.allocBytes += ep.rt.allocBytes
		late, dups, rejoins = late+ep.out.late, dups+ep.out.dups, rejoins+ep.out.rejoins
		wire += ep.out.wireUp + ep.out.wireDown
		appUp += ep.events[len(ep.events)-1].CumUplinkBytes
		rounds += float64(len(ep.rounds))
	}
	dim := float64(L.dim)
	pass := ts.passRatio()
	declared.setDeclared("tensor.gemm_gflops", L.gemmGFLOPS)
	declared.setDeclared("nn.fwd_bwd_us_per_sample", L.stepUs/float64(in.batch))
	declared.setDeclared("fl.local_train_us", L.localTrainUs)
	declared.setDeclared("fl.local_train_allocs", L.localTrainAllocs)
	declared.setDeclared("fl.local_train_bytes", L.localTrainBytes)
	declared.setDeclared("fl.check_upload_us", L.checkUploadUs)
	declared.setDeclared("fl.gate_pass_ratio", pass)
	declared.setDeclared("core.sign_agreement_ns_per_coord", L.signNsPerCoord)
	declared.setDeclared("compress.encode_ns_per_coord", L.encodeNsPerCoord)
	declared.setDeclared("compress.decode_ns_per_coord", L.decodeNsPerCoord)
	declared.setDeclared("compress.ratio", float64(last.payload)/(8*dim))
	declared.setDeclared("shard.fold_ns_per_coord", L.foldNsPerCoord)
	declared.setDeclared("shard.merge_round_ns_per_coord", L.mergeRoundNsPerCoord)
	declared.setDeclared("shard.fold_allocs_per_round", L.foldAllocsPerRound)
	declared.setDeclared("engine.worker_idle_share", workerIdleShare(last.tr, len(in.clients), in.workers, clientStepUs(w.engine, L, pass)))
	declared.setDeclared("engine.unattributed_ms_per_round", residual)
	// The runtime refreshes its CPU classes at each GC; no cycle, no GC time.
	declared.setDeclared("runtime.gc_cpu_fraction", rt.gcCPU/math.Max(rt.totalCPU, 1e-9))
	declared.setDeclared("runtime.alloc_bytes_per_client_round", rt.allocBytes/float64(max(clientRounds, 1)))
	declared.setDeclared("trace.wall_ratio", median(ts.wall)/median(ts.untracedWall))

	// Layers only some engines have: printed and recorded, not declared.
	if w.engine != "emu" {
		extra.set("compress.encode_calls_per_upload", "count", float64(ts.encodes)/float64(max(ts.uploads, 1)))
	}
	switch w.engine {
	case "emu":
		downApp := rounds * float64(len(in.clients)) * 8 * dim // one model broadcast per client-round
		extra.set("emu.framing_overhead_ratio", "ratio", float64(wire)/(float64(appUp)+downApp))
		extra.set("emu.late_frames", "count", float64(late))
		extra.set("emu.dup_frames", "count", float64(dups))
		extra.set("emu.rejoins", "count", float64(rejoins))
	case "sim":
		extra.set("sim.late_replies", "count", float64(late))
	}
	return declared, extra
}
