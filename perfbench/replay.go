package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// layers holds what the layer replay measured: each layer's public call
// timed from outside, on the workload's own round-1 inputs (client data,
// initial model, round-1 learning rate, the workload's filter and codec).
//
// Work the engine spreads over its workers is replayed on as many lanes at
// once, so a call is timed under the engine's load: an idle core would let
// the shared GEMM pool split products that the engine runs inline, and make
// a replayed call cheaper or dearer than it is inside a round.
type layers struct {
	dim   int
	lanes int

	localTrainUs, localTrainAllocs, localTrainBytes float64
	stepsPerClient                                  float64 // minibatch steps per LocalTrainProx call
	stepUs                                          float64 // Forward + loss + Backward + SGDStep
	gemmUsPerStep, gemmGFLOPS                       float64

	checkUploadUs    float64
	signNsPerCoord   float64
	codecName        string
	encodeNsPerCoord float64
	decodeNsPerCoord float64
	axpyNsPerCoord   float64

	foldNsPerCoord       float64 // shard.Accumulator.Add, per coordinate
	mergeRoundNsPerCoord float64 // root Merge of every shard plus Round, per coordinate
	foldAllocsPerRound   float64

	evalMs float64 // one held-out evaluation pass
}

// maxReplayClients bounds the replayed population: per-call costs settle
// long before 100k clients.
const maxReplayClients = 256

// replayer times calls and records their spans.
type replayer struct {
	tr *tracer
}

// timeIt repeats fn until it has run at least three times for 50 ms in
// total, or for half a second, and returns the median repetition.
func (r *replayer) timeIt(name string, fn func() error) (time.Duration, error) {
	var reps []time.Duration
	var total time.Duration
	for (len(reps) < 3 || total < 50*time.Millisecond) && total < 500*time.Millisecond {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("replay %s: %w", name, err)
		}
		end := time.Now()
		r.tr.add("replay/"+name, 0, start, end)
		reps = append(reps, end.Sub(start))
		total += end.Sub(start)
	}
	return medianDur(reps), nil
}

// onLanes calls fn for i in [0, n) on `lanes` goroutines, each owning a
// contiguous range, and waits for all of them.
func onLanes(lanes, n int, fn func(lane, i int) error) error {
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l, rg := range shard.Split(n, min(lanes, n)) {
		wg.Add(1)
		go func(l int, rg shard.Range) {
			defer wg.Done()
			for i := rg.Lo; i < rg.Hi && errs[l] == nil; i++ {
				errs[l] = fn(l, i)
			}
		}(l, rg)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func perUnit(d time.Duration, units int, scale time.Duration) float64 {
	return float64(d) / float64(scale) / float64(max(units, 1))
}

// replayLayers measures every layer of the workload on its inputs.
func replayLayers(in *inputs, tr *tracer) (*layers, error) {
	r := &replayer{tr: tr}
	net := in.model()
	params := net.ParamVector()
	k := min(len(in.clients), maxReplayClients)
	L := &layers{dim: len(params), lanes: min(in.workers, k)}
	lr := in.lr.At(1)

	// fl.LocalTrainProx per client, on the engines' per-client streams, with
	// one model replica per lane as the engines keep one per worker.
	rngs := make([]*xrand.Stream, k)
	for c := range rngs {
		rngs[c] = fl.ClientStream(in.seed, c)
	}
	nets := make([]*nn.Network, L.lanes)
	for i := range nets {
		nets[i] = in.model()
	}
	deltas := make([][]float64, k)
	calls := make([]time.Duration, k)
	trainAll := func() error {
		return onLanes(L.lanes, k, func(lane, c int) error {
			start := time.Now()
			d, _, err := fl.LocalTrainProx(nets[lane], in.clients[c], params, lr, in.epochs, in.batch, 0, rngs[c])
			end := time.Now()
			r.tr.add("replay/fl.LocalTrainProx", 0, start, end)
			deltas[c], calls[c] = d, end.Sub(start)
			return err
		})
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := trainAll(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	L.localTrainAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(k)
	L.localTrainBytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(k)
	// Each call is timed on its own: a pass's wall time would also count
	// the lane that finishes early waiting for the other.
	var all []time.Duration
	for start := time.Now(); len(all) < 3*k || (len(all) < 1000*k && time.Since(start) < 100*time.Millisecond); {
		if err := trainAll(); err != nil {
			return nil, err
		}
		all = append(all, calls...)
	}
	L.localTrainUs = perUnit(medianDur(all), 1, time.Microsecond)
	n0 := in.clients[0].Len()
	L.stepsPerClient = float64(in.epochs * ((n0 + in.batch - 1) / in.batch))

	// The round-1 aggregate is round 2's feedback: the gate and the sign
	// agreement are replayed against it.
	feedback := make([]float64, L.dim)
	for _, d := range deltas {
		tensor.Axpy(1/float64(k), d, feedback)
	}
	signs := core.SignsInto(nil, feedback)
	filter := in.newFilter()
	d, err := r.timeIt("fl.CheckUpload", func() error {
		for _, dl := range deltas {
			if _, err := fl.CheckUpload(filter, dl, params, feedback, signs, 2); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	L.checkUploadUs = perUnit(d, k, time.Microsecond)
	d, err = r.timeIt("core.SignAgreement", func() error {
		for _, dl := range deltas {
			if _, err := core.SignAgreement(dl, signs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	L.signNsPerCoord = perUnit(d, k*L.dim, time.Nanosecond)

	if err := replayCodec(r, in.codec, deltas, L); err != nil {
		return nil, err
	}
	sum := make([]float64, L.dim)
	d, err = r.timeIt("tensor.Axpy", func() error {
		for _, dl := range deltas {
			tensor.Axpy(1, dl, sum)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	L.axpyNsPerCoord = perUnit(d, k*L.dim, time.Nanosecond)

	replayFold(r, in, deltas, L)
	if err := replayStep(r, in, params, lr, k, L); err != nil {
		return nil, err
	}
	if err := replayGEMM(r, in, net, L); err != nil {
		return nil, err
	}
	// Evaluation runs on the engine's own goroutine while the workers wait, so it
	// is replayed alone.
	d, err = r.timeIt("nn.Forward/eval", func() error {
		_, err := heldOutAccuracy(func() *nn.Network { return net }, params, in.test)
		return err
	})
	if err != nil {
		return nil, err
	}
	L.evalMs = perUnit(d, 1, time.Millisecond)
	return L, nil
}

// replayCodec times the workload's codec on the replayed updates. A
// workload without a codec uploads raw float64s; its replay times
// compress.Identity, the codec that produces exactly those bytes.
func replayCodec(r *replayer, codec fl.UpdateCodec, deltas [][]float64, L *layers) error {
	if codec == nil {
		codec = compress.Identity{}
	}
	L.codecName = codec.Name()
	payloads := make([][]byte, len(deltas))
	d, err := r.timeIt("compress.EncodeInto", func() error {
		for i, dl := range deltas {
			p, err := codec.EncodeInto(payloads[i], dl)
			if err != nil {
				return err
			}
			payloads[i] = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	L.encodeNsPerCoord = perUnit(d, len(deltas)*L.dim, time.Nanosecond)
	var dst []float64
	d, err = r.timeIt("compress.DecodeInto", func() error {
		for _, p := range payloads {
			out, err := codec.DecodeInto(dst, p, L.dim)
			if err != nil {
				return err
			}
			dst = out
		}
		return nil
	})
	if err != nil {
		return err
	}
	L.decodeNsPerCoord = perUnit(d, len(deltas)*L.dim, time.Nanosecond)
	return nil
}

// replayFold runs the emu aggregation tree's exact fold at the workload's
// client count, dimension and round budget: one accumulator per worker
// shard owning a contiguous client range, new at the start as every server
// run makes them, each round Reset and one Add per client, then the root's
// Reset, Merge of every shard and Round.
func replayFold(r *replayer, in *inputs, deltas [][]float64, L *layers) {
	n, k := len(in.clients), len(deltas)
	ranges := shard.Split(n, min(in.workers, n))
	accs := make([]*shard.Accumulator, len(ranges))
	for i := range accs {
		accs[i] = shard.New(0)
	}
	root := shard.New(0)
	var buf []float64
	var addDur, mergeDur time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for t := 0; t < in.rounds; t++ {
		start := time.Now()
		for i, rg := range ranges {
			accs[i].Reset(L.dim)
			for c := rg.Lo; c < rg.Hi; c++ {
				accs[i].Add(deltas[c%k])
			}
		}
		mid := time.Now()
		root.Reset(L.dim)
		for _, a := range accs {
			root.Merge(a)
		}
		buf = root.Round(buf)
		end := time.Now()
		r.tr.add("replay/shard.Accumulator.Add", 0, start, mid)
		r.tr.add("replay/shard.Accumulator.MergeRound", 0, mid, end)
		addDur += mid.Sub(start)
		mergeDur += end.Sub(mid)
	}
	runtime.ReadMemStats(&ms1)
	L.foldNsPerCoord = perUnit(addDur, in.rounds*n*L.dim, time.Nanosecond)
	L.mergeRoundNsPerCoord = perUnit(mergeDur, in.rounds*L.dim, time.Nanosecond)
	L.foldAllocsPerRound = float64(ms1.Mallocs-ms0.Mallocs) / float64(in.rounds)
}

// replayStep times training steps (Network.Forward, the loss,
// Network.Backward, Network.SGDStep) at the workload's batch size, laid out
// as the LocalTrainProx replay lays out its calls: the replayed clients
// split over the lanes, each client taking its steps per call on its first
// minibatch, so the lanes overlap as they do there. Each step is a span
// with its three calls as children, so the step's self time is the loss
// and the glue.
func replayStep(r *replayer, in *inputs, params []float64, lr float64, k int, L *layers) error {
	nets := make([]*nn.Network, L.lanes)
	grads := make([]*tensor.Tensor, L.lanes)
	for i := range nets {
		nets[i] = in.model()
	}
	steps := make([][]time.Duration, L.lanes)
	pass := func(lane, c int) error {
		// Like a LocalTrainProx call: start from the broadcast model and
		// walk the client's minibatches in order. Training on from the end
		// of the previous call would drive gradients into denormals, which
		// multiply many times slower than round-1 values.
		net, data := nets[lane], in.clients[c]
		if err := net.SetParamVector(params); err != nil {
			return err
		}
		var mb dataset.Minibatch
		for s := 0; s < int(L.stepsPerClient); s++ {
			lo := (s * in.batch) % data.Len()
			idx := make([]int, 0, in.batch)
			for i := lo; i < min(lo+in.batch, data.Len()); i++ {
				idx = append(idx, i)
			}
			data.GatherInto(&mb, idx)
			t0 := time.Now()
			net.ZeroGrads()
			logits := net.Forward(mb.X)
			t1 := time.Now()
			if grads[lane] == nil {
				grads[lane] = tensor.New(logits.Dim(0), logits.Dim(1))
			}
			nn.SoftmaxCrossEntropyInto(grads[lane], logits, mb.Y)
			t2 := time.Now()
			net.Backward(grads[lane])
			t3 := time.Now()
			net.SGDStep(lr)
			t4 := time.Now()
			r.tr.addTree("replay/nn.TrainStep", t0, t4,
				span{Name: "replay/nn.Network.Forward", Start: r.tr.ns(t0), End: r.tr.ns(t1)},
				span{Name: "replay/nn.Network.Backward", Start: r.tr.ns(t2), End: r.tr.ns(t3)},
				span{Name: "replay/nn.Network.SGDStep", Start: r.tr.ns(t3), End: r.tr.ns(t4)})
			steps[lane] = append(steps[lane], t4.Sub(t0))
		}
		return nil
	}
	for start := time.Now(); len(steps[0]) < 3 || time.Since(start) < 50*time.Millisecond; {
		if err := onLanes(L.lanes, k, pass); err != nil {
			return err
		}
	}
	var all []time.Duration
	for _, s := range steps {
		all = append(all, s...)
	}
	L.stepUs = perUnit(medianDur(all), 1, time.Microsecond)
	return nil
}

// gemmShape is one matrix product a training step performs:
// dst[m×n] (+)= a · b with inner dimension k, in the named form.
type gemmShape struct {
	op      string
	m, k, n int
}

// gemmShapes lists the products of one training step at batch size b,
// walking the layers with the input's shape: Dense and Conv2D forward and
// backward products (per sample for Conv2D, as the layer runs them).
func gemmShapes(net *nn.Network, sample []int, b int) []gemmShape {
	var out []gemmShape
	shape := append([]int(nil), sample...)
	for i, l := range net.Layers() {
		switch l := l.(type) {
		case *nn.Dense:
			out = append(out,
				gemmShape{"MatMulInto", b, l.In, l.Out},
				gemmShape{"AddMatMulTransA", l.In, b, l.Out},
				gemmShape{"MatMulTransBInto", b, l.Out, l.In})
			shape = []int{l.Out}
		case *nn.Conv2D:
			h, w := shape[1]-l.K+1, shape[2]-l.K+1
			ckk, p := l.InC*l.K*l.K, h*w
			for s := 0; s < b; s++ {
				out = append(out,
					gemmShape{"MatMulInto", l.OutC, ckk, p},
					gemmShape{"AddMatMulTransB", l.OutC, p, ckk})
				if i > 0 { // the first layer skips its input gradient
					out = append(out, gemmShape{"MatMulTransAInto", ckk, l.OutC, p})
				}
			}
			shape = []int{l.OutC, h, w}
		case *nn.MaxPool2:
			shape = []int{shape[0], shape[1] / 2, shape[2] / 2}
		case *nn.Flatten:
			size := 1
			for _, v := range shape {
				size *= v
			}
			shape = []int{size}
		}
	}
	return out
}

// replayGEMM times the products of one training step, in the step's order,
// on operands of their own: every lane runs step after step of them, as
// the step replay's lanes run their steps. gemmGFLOPS is the machine's
// throughput under that load: lanes × flops per step ÷ lane time per step.
func replayGEMM(r *replayer, in *inputs, net *nn.Network, L *layers) error {
	shapes := gemmShapes(net, in.clients[0].SampleShape(), in.batch)
	var flops float64
	for _, s := range shapes {
		flops += 2 * float64(s.m) * float64(s.k) * float64(s.n)
	}
	ops := make([][]func(), L.lanes)
	for lane := range ops {
		for _, s := range shapes {
			op, err := gemmOp(s)
			if err != nil {
				return err
			}
			ops[lane] = append(ops[lane], op)
		}
	}
	steps := make([][]time.Duration, L.lanes)
	err := onLanes(L.lanes, L.lanes, func(lane, _ int) error {
		var total time.Duration
		for len(steps[lane]) < 3 || (total < 50*time.Millisecond && len(steps[lane]) < 100000) {
			start := time.Now()
			for _, op := range ops[lane] {
				op()
			}
			end := time.Now()
			r.tr.add("replay/tensor.GEMM(step)", 0, start, end)
			steps[lane] = append(steps[lane], end.Sub(start))
			total += end.Sub(start)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var all []time.Duration
	for _, s := range steps {
		all = append(all, s...)
	}
	perStep := medianDur(all)
	L.gemmUsPerStep = perUnit(perStep, 1, time.Microsecond)
	L.gemmGFLOPS = float64(L.lanes) * flops / perStep.Seconds() / 1e9
	return nil
}

// gemmOp allocates operands for the product's form — dst is m×n; a and b
// are laid out as the form reads them, transposed where it says so — and
// returns the call.
func gemmOp(s gemmShape) (func(), error) {
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		for i := range t.Data {
			t.Data[i] = float64(i%7) - 3
		}
		return t
	}
	dst := tensor.New(s.m, s.n)
	switch s.op {
	case "MatMulInto":
		a, b := fill(tensor.New(s.m, s.k)), fill(tensor.New(s.k, s.n))
		return func() { tensor.MatMulInto(dst, a, b) }, nil
	case "AddMatMulTransA":
		a, b := fill(tensor.New(s.k, s.m)), fill(tensor.New(s.k, s.n))
		return func() { tensor.AddMatMulTransA(dst, a, b) }, nil
	case "MatMulTransAInto":
		a, b := fill(tensor.New(s.k, s.m)), fill(tensor.New(s.k, s.n))
		return func() { tensor.MatMulTransAInto(dst, a, b) }, nil
	case "AddMatMulTransB":
		a, b := fill(tensor.New(s.m, s.k)), fill(tensor.New(s.n, s.k))
		return func() { tensor.AddMatMulTransB(dst, a, b) }, nil
	case "MatMulTransBInto":
		a, b := fill(tensor.New(s.m, s.k)), fill(tensor.New(s.n, s.k))
		return func() { tensor.MatMulTransBInto(dst, a, b) }, nil
	}
	return nil, fmt.Errorf("unknown product %s", s.op)
}
