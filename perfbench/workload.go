package main

import (
	"fmt"
	"runtime"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu"
	"cmfl/internal/experiments"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/sim"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
)

// workload is one closed-loop input set driven through one engine's public
// entry point. Every synchronous round starts only after the previous one
// aggregated; the client count is fixed per workload.
type workload struct {
	name   string
	why    string
	engine string // "sim", "emu" or "fl"
	// build synthesises the inputs from the seed. tiny shrinks every size
	// for the benchmark's own smoke tests; the shape of the run is kept.
	build func(seed int64, tiny bool) (*inputs, error)
	// run makes one engine call over the inputs with the benchmark's hooks.
	run func(in *inputs, h hooks) (*outcome, error)
}

// inputs is everything an engine receives: generated from the seed, never
// from the benchmark's own state.
type inputs struct {
	model   func() *nn.Network
	clients []*dataset.Set
	// test is held-out data from the same generator, for final_accuracy.
	test      *dataset.Set
	newFilter func() fl.UploadFilter
	codec     fl.UpdateCodec // nil uploads raw float64 vectors
	lr        core.Schedule
	epochs    int
	batch     int
	rounds    int
	// workers is the engine's concurrency: sim shards, fl.Config.Parallelism,
	// or the emu client (and shard) count. It is the core count, so load
	// from the one benchmark process never queues behind itself.
	workers int
	seed    int64
	// target is the held-out accuracy time_to_target_s waits for. Zero
	// when the engine does not report accuracy after every round.
	target float64
}

// hooks are the benchmark-owned values an engine call receives in place of
// the plain inputs: a Model factory that timestamps setup, the round
// observer, and (in traced runs) wrapped filter and codec.
type hooks struct {
	model     func() *nn.Network
	filter    fl.UploadFilter
	codec     fl.UpdateCodec
	observers []telemetry.Observer
}

// outcome is what an engine call returned that the benchmark checks.
type outcome struct {
	params []float64
	// Wire-level counts exist only for emu.
	wireUp, wireDown    int64
	late, dups, rejoins int
}

var workloads = []workload{
	{
		name:   "sim-pop",
		why:    "100k-client virtual-clock soak: per-client overhead (train allocs, gate, codec, event heap) dominates; no wire, no exact fold",
		engine: "sim",
		build:  buildSimPop,
		run:    runSim,
	},
	{
		name:   "emu-wide",
		why:    "100k-parameter model over loopback TCP, one shard per client: wire, dense codec and exact fold dominate; the gate is bypassed",
		engine: "emu",
		build:  buildEmuWide,
		run:    runEmu,
	},
	{
		name:   "fl-cnn",
		why:    "paper MNIST CNN in the in-process engine with the decaying CMFL gate: GEMM, im2col and maxpool dominate; no codec",
		engine: "fl",
		build:  buildFLCNN,
		run:    runFL,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want sim-pop, emu-wide or fl-cnn)", name)
}

// splitHoldout generates clients+holdout synthetic clients and returns the
// first `clients` as the population and the rest, merged, as the test set:
// held-out data is simply more clients from the same generator.
func splitHoldout(clients, holdout, features, classes, samples int, seed int64) (sim.Workload, *dataset.Set, error) {
	wl, err := sim.SyntheticWorkload(clients+holdout, features, classes, samples, seed)
	if err != nil {
		return sim.Workload{}, nil, err
	}
	test := &dataset.Set{X: tensor.New(holdout*samples, features), Y: make([]int, 0, holdout*samples)}
	for i, s := range wl.Shards[clients:] {
		copy(test.X.Data[i*samples*features:], s.X.Data)
		test.Y = append(test.Y, s.Y...)
	}
	wl.Shards = wl.Shards[:clients]
	return wl, test, nil
}

// splitEachClient generates every client with samples+testPer samples and
// holds the last testPer of each out: the test set is unseen samples of the
// federation's own clients. With two clients, extra clients would mostly
// hold classes no training client has, and held-out accuracy would measure
// which classes a seed happened to draw rather than the model.
func splitEachClient(clients, testPer, features, classes, samples int, seed int64) (sim.Workload, *dataset.Set, error) {
	wl, err := sim.SyntheticWorkload(clients, features, classes, samples+testPer, seed)
	if err != nil {
		return sim.Workload{}, nil, err
	}
	test := &dataset.Set{X: tensor.New(clients*testPer, features), Y: make([]int, 0, clients*testPer)}
	for i, s := range wl.Shards {
		copy(test.X.Data[i*testPer*features:], s.X.Data[samples*features:])
		test.Y = append(test.Y, s.Y[samples:]...)
		wl.Shards[i] = &dataset.Set{X: tensor.FromSlice(s.X.Data[:samples*features], samples, features), Y: s.Y[:samples]}
	}
	return wl, test, nil
}

func buildSimPop(seed int64, tiny bool) (*inputs, error) {
	clients, holdout, rounds := 100_000, 1000, 3
	if tiny {
		clients, holdout, rounds = 300, 20, 2
	}
	wl, test, err := splitHoldout(clients, holdout, 16, 4, 8, seed)
	if err != nil {
		return nil, err
	}
	codec, err := compress.ParseName("top16+quantize8")
	if err != nil {
		return nil, err
	}
	return &inputs{
		model:     wl.Model,
		clients:   wl.Shards,
		test:      test,
		newFilter: func() fl.UploadFilter { return core.NewFilter(core.Constant(0.4)) },
		codec:     codec,
		lr:        core.InvSqrt{V0: 1},
		epochs:    1,
		batch:     8,
		rounds:    rounds,
		workers:   runtime.NumCPU(),
		seed:      seed,
	}, nil
}

func runSim(in *inputs, h hooks) (*outcome, error) {
	arrival, err := sim.ParseDist("exp:5ms")
	if err != nil {
		return nil, err
	}
	latency, err := sim.ParseDist("lognormal:50ms,0.5")
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		Model:         h.model,
		ClientData:    in.clients,
		Epochs:        in.epochs,
		Batch:         in.batch,
		LR:            in.lr,
		Filter:        h.filter,
		Compressor:    h.codec,
		Rounds:        in.rounds,
		Seed:          in.seed,
		Shards:        in.workers,
		Arrival:       arrival,
		Latency:       latency,
		RoundDeadline: 300 * time.Millisecond,
		Observers:     h.observers,
	})
	if err != nil {
		return nil, err
	}
	return &outcome{params: res.FinalParams, late: res.LateReplies}, nil
}

func buildEmuWide(seed int64, tiny bool) (*inputs, error) {
	features, testPer, rounds := 10_000, 128, 100
	if tiny {
		features, testPer, rounds = 200, 8, 3
	}
	n := runtime.NumCPU()
	if n < 2 {
		n = 2 // the root merge only runs with two shards or more
	}
	wl, test, err := splitEachClient(n, testPer, features, 10, 4, seed)
	if err != nil {
		return nil, err
	}
	codec, err := compress.ParseName("quantize8")
	if err != nil {
		return nil, err
	}
	return &inputs{
		model:     wl.Model,
		clients:   wl.Shards,
		test:      test,
		newFilter: func() fl.UploadFilter { return fl.Vanilla{} },
		codec:     codec,
		lr:        core.InvSqrt{V0: 0.1},
		epochs:    1,
		batch:     4,
		rounds:    rounds,
		workers:   n,
		seed:      seed,
	}, nil
}

func runEmu(in *inputs, h hooks) (*outcome, error) {
	res, err := emu.RunCluster(emu.ClusterConfig{
		Model:      h.model,
		ClientData: in.clients,
		TestData:   in.test,
		Epochs:     in.epochs,
		Batch:      in.batch,
		LR:         in.lr,
		Filter:     h.filter,
		// The wire hello carries the codec's spec, which exists only for
		// the concrete compress codecs: emu always gets the plain codec.
		Compressor:    in.codec,
		ErrorFeedback: true,
		Rounds:        in.rounds,
		// Evaluate once, after the last round, so the per-round time is
		// the wire and the fold, not the held-out forward pass.
		EvalEvery: in.rounds,
		Seed:      in.seed,
		Topology:  emu.Topology{Shards: len(in.clients)},
		Observers: h.observers,
	})
	if err != nil {
		return nil, err
	}
	s := res.Server
	return &outcome{params: s.FinalParams, wireUp: s.UplinkWireBytes, wireDown: s.DownlinkWireBytes,
		late: s.LateFrames, dups: s.DupFrames, rejoins: s.Rejoins}, nil
}

func buildFLCNN(seed int64, tiny bool) (*inputs, error) {
	// The paper's MNIST CNN shape on the quick preset's federation:
	// label-sorted two-class shards with fully label-noised outliers.
	s := experiments.QuickMNIST()
	s.CNN = nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 8, Conv2: 16, Hidden: 64, Classes: 10}
	s.Clients, s.SamplesPerClient, s.TestSamples = 20, 30, 500
	// final_accuracy and the uplink bytes are gated across seeds, so their
	// spread over seeds must be small. Of the settings tried, η0 = 0.08
	// (against 0.15 and 0.3) and two outliers (against five) make the
	// accuracy after the round budget vary least: which clients and classes
	// the outliers take is the seed's largest lever on the result.
	s.Eta0, s.OutlierClients = 0.08, 2
	s.Seed = seed
	rounds := 24
	if tiny {
		s.Clients, s.SamplesPerClient, s.TestSamples, s.OutlierClients, s.Epochs = 4, 10, 40, 1, 1
		rounds = 2
	}
	fed, err := s.Build()
	if err != nil {
		return nil, err
	}
	return &inputs{
		model:   fed.Model,
		clients: fed.Shards,
		test:    fed.Test,
		// The paper's decaying threshold: a constant 0.8 or 0.52 stalls
		// this federation after round 1.
		newFilter: func() fl.UploadFilter { return core.NewFilter(core.InvSqrt{V0: 0.8}) },
		lr:        core.InvSqrt{V0: s.Eta0},
		epochs:    s.Epochs,
		batch:     s.Batch,
		rounds:    rounds,
		workers:   runtime.NumCPU(),
		seed:      seed,
		target:    0.6,
	}, nil
}

func runFL(in *inputs, h hooks) (*outcome, error) {
	res, err := fl.Run(fl.Config{
		Model:       h.model,
		ClientData:  in.clients,
		TestData:    in.test,
		Epochs:      in.epochs,
		Batch:       in.batch,
		LR:          in.lr,
		Filter:      h.filter,
		Compressor:  h.codec,
		Rounds:      in.rounds,
		EvalEvery:   1,
		Parallelism: in.workers,
		Seed:        in.seed,
		Observers:   h.observers,
	})
	if err != nil {
		return nil, err
	}
	return &outcome{params: res.FinalParams}, nil
}
