package fl

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/nn"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// ClientStep is the client half of a round, shared by Run, RunAsync,
// sim.Run and emu.RunClient: local training (LocalTrainProx), client-level
// privacy, the upload gate, EF-SGD error feedback and encoding. It holds
// only per-run settings and is safe for concurrent use; what a client
// carries from one round to the next lives in its ClientState.
type ClientStep struct {
	// Epochs and Batch parameterise the local solver.
	Epochs, Batch int
	// ProxMu, DPClip and DPNoiseSigma are as in Config; zero disables each.
	ProxMu, DPClip, DPNoiseSigma float64
	// Filter gates uploads; nil means Vanilla.
	Filter UploadFilter
	// Codec encodes uploads; nil uploads raw float64 vectors.
	Codec UpdateCodec
	// ErrorFeedback keeps an EF-SGD residual per client: each upload encodes
	// update+residual and keeps what the codec discarded. Residuals are
	// untouched on skipped rounds. Ignored when Codec is nil.
	ErrorFeedback bool
}

// ClientState is one client's side of ClientStep: the outputs of its latest
// Run plus the buffers it reuses across rounds. The zero value is ready for
// the first round.
type ClientState struct {
	// Delta is the trained, privatized update. Error feedback never
	// modifies it.
	Delta []float64
	// Loss is the mean minibatch loss of the local training.
	Loss float64
	// Decision is the gate's verdict.
	Decision core.Decision
	// Relevance is Eq. 9 of Delta against the feedback signs (NaN when Run
	// got none).
	Relevance float64
	// Payload is the encoded upload, valid when Decision.Upload and the step
	// has a Codec. The next Run reuses its buffer.
	Payload []byte
	// Bytes is the reply's uplink cost: the payload, the raw float64
	// vector, or a skip notification.
	Bytes int64

	residual []float64 // EF-SGD: encode error not yet uploaded
	decoded  []float64 // EF-SGD: decode scratch for the residual update
}

// Run executes one round for the client whose state is s: train net on data
// from the global parameters at learning rate lr, privatize, gate in round
// t and, if the update goes up, add the EF residual and encode.
//
// feedbackSigns is the feedback's sign vector, computed once per round by
// the engine. When it is non-nil the gate takes CheckUpload's sign fast
// path and Relevance is the gate's own Eq. 9 metric when the sign path
// decided (one SignAgreement otherwise). When it is nil the gate calls
// Filter.Check on the float feedback and Relevance is NaN; engines pass nil
// while the feedback is all zeros, where every CMFL filter bootstraps to an
// upload on either path.
func (cs *ClientStep) Run(s *ClientState, net *nn.Network, data *dataset.Set, rng *xrand.Stream, global, feedback []float64, feedbackSigns []int8, lr float64, t int) error {
	delta, loss, err := LocalTrainProx(net, data, global, lr, cs.Epochs, cs.Batch, cs.ProxMu, rng)
	if err != nil {
		return err
	}
	privatize(delta, cs.DPClip, cs.DPNoiseSigma, rng)
	s.Delta, s.Loss, s.Relevance = delta, loss, math.NaN()

	filter := cs.Filter
	if filter == nil {
		filter = Vanilla{}
	}
	if feedbackSigns == nil {
		s.Decision, err = filter.Check(delta, global, feedback, t)
	} else {
		var signed bool
		s.Decision, signed, err = checkUpload(filter, delta, global, feedback, feedbackSigns, t)
		if signed {
			s.Relevance = s.Decision.Metric
		} else if rel, rerr := core.SignAgreement(delta, feedbackSigns); rerr == nil {
			s.Relevance = rel
		}
	}
	if err != nil {
		return fmt.Errorf("filter: %w", err)
	}

	switch {
	case !s.Decision.Upload:
		s.Bytes = SkipNotificationBytes
		return nil
	case cs.Codec == nil:
		s.Bytes = int64(len(delta)) * 8
		return nil
	}
	upload := delta
	if cs.ErrorFeedback {
		// Post-gate: the decision saw the raw delta, the wire carries the
		// corrected one. The residual buffer becomes residual+delta.
		if s.residual == nil {
			s.residual = make([]float64, len(delta))
		}
		tensor.Axpy(1, delta, s.residual)
		upload = s.residual
	}
	if s.Payload, err = cs.Codec.EncodeInto(s.Payload, upload); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	s.Bytes = int64(len(s.Payload))
	if cs.ErrorFeedback {
		if s.decoded, err = cs.Codec.DecodeInto(s.decoded, s.Payload, len(delta)); err != nil {
			return fmt.Errorf("residual decode: %w", err)
		}
		for j, v := range s.decoded {
			s.residual[j] -= v
		}
	}
	return nil
}

// Fold is the server half of an in-process round, shared by fl.Run and
// sim.Run: skip accounting, decoding each upload's payload, the weighted
// FedAvg mean, plus the round's mean loss and relevance.
//
// The FedAvg sum is the one emu's aggregation tree computes: every weighted
// upload w·δ, rounded once, goes into a shard.Accumulator, and the exact
// sum is rounded once and scaled by 1/Σw. An exact sum does not depend on
// how its inputs are grouped or ordered, so fl, sim and emu (flat or
// sharded) produce the same bits; TestFLParity checks the matrix.
type Fold struct {
	// Dim is the parameter dimension.
	Dim int
	// Codec decodes the payloads ClientStep encoded; nil folds raw deltas.
	Codec UpdateCodec
	// Weights is the per-client FedAvg weight (n_k); nil weighs every
	// upload 1.
	Weights []float64

	uploads []int       // the round's admitted uploaders, ascending
	blocks  []foldBlock // one per summing goroutine, reused across rounds
}

// foldBlock sums one contiguous run of a round's uploads.
type foldBlock struct {
	acc     *shard.Accumulator
	decoded []float64 // decode scratch: Add consumes it before the next client
	scaled  []float64 // w·δ scratch for weighted folds
	err     error
}

// FoldResult is one folded round.
type FoldResult struct {
	// Update is the weighted mean of the admitted uploads, freshly
	// allocated; nil when none uploaded.
	Update []float64
	// Uploaded and Skipped count the admitted clients by decision.
	Uploaded, Skipped int
	// UplinkBytes sums the admitted clients' ClientState.Bytes.
	UplinkBytes int64
	// TrainLoss is the mean loss over every folded client; MeanRelevance
	// the mean over those with a relevance (NaN when none).
	TrainLoss, MeanRelevance float64
}

// Round folds the states of clients, listed in ascending order. admitted
// reports whether a client's reply counts (nil admits all): every listed
// client's loss and relevance enter the means, but only admitted ones are
// charged, counted and aggregated. skips[c] is incremented for every
// admitted client c that withheld its update. A decode error names the
// lowest failing client.
func (f *Fold) Round(states []ClientState, clients []int, admitted func(c int) bool, skips []int) (FoldResult, error) {
	res := FoldResult{TrainLoss: math.NaN(), MeanRelevance: math.NaN()}
	var lossSum, relSum, weightSum float64
	relCount := 0
	f.uploads = f.uploads[:0]
	//cmfl:order-pinned the loss and relevance means and the weight total fold in ascending client order; TestFLParity pins their bits across fl and sim
	for _, c := range clients {
		s := &states[c]
		lossSum += s.Loss
		if !math.IsNaN(s.Relevance) {
			relSum += s.Relevance
			relCount++
		}
		if admitted != nil && !admitted(c) {
			continue
		}
		res.UplinkBytes += s.Bytes
		if !s.Decision.Upload {
			skips[c]++
			res.Skipped++
			continue
		}
		f.uploads = append(f.uploads, c)
		if f.Weights != nil {
			weightSum += f.Weights[c]
		} else {
			weightSum++
		}
	}
	if len(clients) > 0 {
		res.TrainLoss = lossSum / float64(len(clients))
	}
	if relCount > 0 {
		res.MeanRelevance = relSum / float64(relCount)
	}
	res.Uploaded = len(f.uploads)
	if res.Uploaded == 0 {
		return res, nil
	}
	sum, err := f.sum(states)
	if err != nil {
		return FoldResult{}, err
	}
	res.Update = sum.Round(nil)
	tensor.ScaleVec(1/weightSum, res.Update)
	return res, nil
}

// sum adds the round's uploads into one exact sum. The uploads split into
// min(GOMAXPROCS, uploads) contiguous blocks, each summed by its own
// goroutine into its own accumulator; the blocks then merge in block
// order. The sum is exact, so the split leaves no trace in its bits
// (TestFoldBlockInvariance). Each block stops at its first decode error
// and the blocks ascend, so the first error found is the lowest client's.
func (f *Fold) sum(states []ClientState) (*shard.Accumulator, error) {
	ranges := shard.Split(len(f.uploads), min(runtime.GOMAXPROCS(0), len(f.uploads)))
	for len(f.blocks) < len(ranges) {
		f.blocks = append(f.blocks, foldBlock{acc: shard.New(0)})
	}
	blocks := f.blocks[:len(ranges)]
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(b *foldBlock, clients []int) {
			defer wg.Done()
			b.err = f.sumBlock(b, states, clients)
		}(&blocks[i], f.uploads[r.Lo:r.Hi])
	}
	wg.Wait()
	for _, b := range blocks {
		if b.err != nil {
			return nil, b.err
		}
	}
	root := blocks[0].acc
	for _, b := range blocks[1:] {
		root.Merge(b.acc)
	}
	return root, nil
}

// sumBlock resets b's accumulator and adds the uploads of clients to it,
// each weighted update rounded once before it is added.
func (f *Fold) sumBlock(b *foldBlock, states []ClientState, clients []int) error {
	b.acc.Reset(f.Dim)
	for _, c := range clients {
		delta := states[c].Delta
		if f.Codec != nil {
			var err error
			if b.decoded, err = f.Codec.DecodeInto(b.decoded, states[c].Payload, f.Dim); err != nil {
				return fmt.Errorf("client %d decode: %w", c, err)
			}
			delta = b.decoded
		}
		if f.Weights != nil {
			b.scaled = append(b.scaled[:0], delta...)
			tensor.ScaleVec(f.Weights[c], b.scaled)
			delta = b.scaled
		}
		b.acc.Add(delta)
	}
	return nil
}

// LocalTrain runs E epochs of minibatch SGD on data starting from the
// broadcast global parameter vector and returns the resulting update delta
// and mean batch loss.
func LocalTrain(net *nn.Network, data *dataset.Set, global []float64, lr float64, epochs, batch int, rng *xrand.Stream) (delta []float64, loss float64, err error) {
	return LocalTrainProx(net, data, global, lr, epochs, batch, 0, rng)
}

// LocalTrainProx is LocalTrain with FedProx's proximal term: every SGD step
// additionally applies the gradient of μ/2·‖w − w_global‖², pulling the
// local solution toward the broadcast model. mu = 0 recovers LocalTrain.
// It is the local solver of ClientStep.
func LocalTrainProx(net *nn.Network, data *dataset.Set, global []float64, lr float64, epochs, batch int, mu float64, rng *xrand.Stream) (delta []float64, loss float64, err error) {
	if err := net.SetParamVector(global); err != nil {
		return nil, 0, err
	}
	var lossSum float64
	batches := 0
	n := data.Len()
	var mb dataset.Minibatch // reused across minibatches: zero steady-state allocs
	for e := 0; e < epochs; e++ {
		order := rng.Perm(n)
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			data.GatherInto(&mb, order[lo:hi])
			//cmfl:order-pinned SGD minibatches fold in schedule order; the seeded permutation is the algorithm
			lossSum += nn.TrainBatch(net, mb.X, mb.Y, lr)
			if mu > 0 {
				// Proximal pull toward the broadcast model, applied in place.
				if err := net.DecayToward(global, lr*mu); err != nil {
					return nil, 0, err
				}
			}
			batches++
		}
	}
	local := net.ParamVector()
	return tensor.Sub(local, global), lossSum / math.Max(1, float64(batches)), nil
}

// privatize applies client-level differential privacy to an update in
// place: clip the L2 norm to clip (if positive), then add per-coordinate
// Gaussian noise with stddev sigma (if positive).
//
//cmfl:hotpath
func privatize(delta []float64, clip, sigma float64, rng *xrand.Stream) {
	if clip > 0 {
		if norm := tensor.Norm2(delta); norm > clip {
			tensor.ScaleVec(clip/norm, delta)
		}
	}
	if sigma > 0 {
		for j := range delta {
			delta[j] += sigma * rng.Norm()
		}
	}
}

// CheckUpload routes the upload decision through the precomputed-sign fast
// path when the filter supports it, falling back to the general Check. It
// is ClientStep's gate, exported so the gate can be driven and timed on
// its own.
//
//cmfl:hotpath
func CheckUpload(filter UploadFilter, delta, global, feedback []float64, feedbackSigns []int8, t int) (core.Decision, error) {
	dec, _, err := checkUpload(filter, delta, global, feedback, feedbackSigns, t)
	return dec, err
}

// checkUpload is CheckUpload that also reports whether the sign fast path
// made the decision.
//
//cmfl:hotpath
func checkUpload(filter UploadFilter, delta, global, feedback []float64, feedbackSigns []int8, t int) (dec core.Decision, signed bool, err error) {
	if sc, ok := filter.(SignChecker); ok {
		if dec, handled, err := sc.CheckSigns(delta, feedbackSigns, t); handled || err != nil {
			return dec, true, err
		}
	}
	dec, err = filter.Check(delta, global, feedback, t)
	return dec, false, err
}
