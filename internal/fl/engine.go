package fl

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/gaia"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

func nan() float64         { return math.NaN() }
func isNaN(v float64) bool { return math.IsNaN(v) }

// client is one simulated edge device: a model replica, a private shard and
// a private random stream for batch shuffling.
type client struct {
	id   int
	net  *nn.Network
	data *dataset.Set
	rng  *xrand.Stream
}

// Run executes a synchronous federated training following Algorithm 1.
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	filter := cfg.Filter
	if filter == nil {
		filter = Vanilla{}
	}

	global := cfg.Model()
	params := global.ParamVector()
	dim := len(params)

	clients := make([]*client, len(cfg.ClientData))
	for i, data := range cfg.ClientData {
		clients[i] = &client{
			id:   i,
			net:  cfg.Model(),
			data: data,
			rng:  ClientStream(cfg.Seed, i),
		}
	}

	res := &Result{
		SkipCounts:   make([]int, len(clients)),
		ClientParams: make([][]float64, len(clients)),
		FilterName:   filter.Name(),
	}

	// feedback is the latest non-empty global update; feedbackHist keeps a
	// short window for the staleness ablation.
	feedback := make([]float64, dim) // all zeros: "no feedback yet"
	feedbackHist := make([][]float64, 0, cfg.FeedbackStaleness+1)
	var prevGlobalUpdate []float64 // for the Eq. 8 trace

	cumUploads := 0
	var cumBytes int64
	var serverVelocity []float64

	step := ClientStep{
		Epochs: cfg.Epochs, Batch: cfg.Batch,
		ProxMu: cfg.ProxMu, DPClip: cfg.DPClip, DPNoiseSigma: cfg.DPNoiseSigma,
		Filter: filter, Codec: cfg.Compressor, ErrorFeedback: cfg.ErrorFeedback,
	}
	fold := Fold{Dim: dim, Codec: cfg.Compressor}
	if cfg.WeightedAggregation {
		fold.Weights = make([]float64, len(clients))
		for i, c := range clients {
			fold.Weights[i] = float64(c.data.Len())
		}
	}
	states := make([]ClientState, len(clients))
	significance := make([]float64, len(clients))
	errs := make([]error, len(clients))
	sem := make(chan struct{}, cfg.Parallelism)
	sampler := xrand.Derive(cfg.Seed, "fl-sampler", 0)
	var signBuf []int8 // reused feedback sign vector, rebuilt each round

	for t := 1; t <= cfg.Rounds; t++ {
		lr := cfg.LR.At(t)
		staleFeedback := feedback
		if cfg.FeedbackStaleness > 1 && len(feedbackHist) >= cfg.FeedbackStaleness {
			staleFeedback = feedbackHist[len(feedbackHist)-cfg.FeedbackStaleness]
		}
		// Precompute the feedback's sign vector once per round; every client
		// reads it concurrently (read-only) for the Eq. 9 check and trace.
		// nil signs signal "no feedback yet".
		var feedbackSigns []int8
		if !core.AllZero(staleFeedback) {
			signBuf = core.SignsInto(signBuf[:0], staleFeedback)
			feedbackSigns = signBuf
		}

		participants := sampleClients(clients, cfg.ClientFraction, sampler)
		var wg sync.WaitGroup
		for _, i := range participants {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				c := clients[i]
				if errs[i] = step.Run(&states[i], c.net, c.data, c.rng, params, staleFeedback, feedbackSigns, lr, t); errs[i] == nil {
					significance[i], errs[i] = gaia.Significance(states[i].Delta, params)
				}
			}(i)
		}
		wg.Wait()
		for _, i := range participants {
			if errs[i] != nil {
				return nil, fmt.Errorf("fl: round %d client %d: %w", t, i, errs[i])
			}
		}

		// Aggregate uploaded updates by averaging (Algorithm 1 line 8),
		// optionally weighted by sample counts (FedAvg's n_k/n).
		round, err := fold.Round(states, participants, nil, res.SkipCounts)
		if err != nil {
			return nil, fmt.Errorf("fl: round %d %w", t, err)
		}
		globalUpdate, uploaded := round.Update, round.Uploaded
		var sigSum float64
		//cmfl:order-pinned ascending-client mean, the order of the fold's loss and relevance means
		for _, i := range participants {
			sigSum += significance[i]
		}
		if uploaded > 0 {
			if cfg.ServerMomentum > 0 {
				if serverVelocity == nil {
					serverVelocity = make([]float64, dim)
				}
				for j := range serverVelocity {
					serverVelocity[j] = cfg.ServerMomentum*serverVelocity[j] + globalUpdate[j]
				}
				// The applied update (and the feedback clients see) is the
				// momentum-smoothed velocity.
				copy(globalUpdate, serverVelocity)
			}
			//cmfl:order-pinned rounds apply to the model strictly sequentially; t-order is the algorithm
			tensor.Axpy(1, globalUpdate, params)
		}

		cumUploads += uploaded
		cumBytes += round.UplinkBytes

		if obs, ok := filter.(FilterFeedback); ok {
			obs.ObserveRound(t, uploaded, len(participants))
		}

		stats := RoundStats{
			RoundEvent: telemetry.RoundEvent{
				Engine:         telemetry.EngineSync,
				Round:          t,
				Participants:   len(participants),
				Uploaded:       uploaded,
				Skipped:        len(participants) - uploaded,
				CumUploads:     cumUploads,
				CumUplinkBytes: cumBytes,
				Accuracy:       nan(),
			},
			TrainLoss:        round.TrainLoss,
			MeanSignificance: sigSum / float64(len(participants)),
			MeanRelevance:    round.MeanRelevance,
			DeltaUpdate:      nan(),
		}
		if uploaded > 0 {
			if prevGlobalUpdate != nil {
				if du, err := core.DeltaUpdate(prevGlobalUpdate, globalUpdate); err == nil {
					stats.DeltaUpdate = du
				}
			}
			prevGlobalUpdate = append(prevGlobalUpdate[:0], globalUpdate...)
			// Update feedback only with non-empty aggregates so a fully
			// skipped round does not zero out the global-direction estimate.
			feedback = globalUpdate
			feedbackHist = append(feedbackHist, globalUpdate)
			if len(feedbackHist) > cfg.FeedbackStaleness+1 {
				feedbackHist = feedbackHist[1:]
			}
		}

		if cfg.EvalEvery > 0 && (t%cfg.EvalEvery == 0 || t == cfg.Rounds) {
			if err := global.SetParamVector(params); err != nil {
				return nil, fmt.Errorf("fl: broadcast to evaluator: %w", err)
			}
			stats.Accuracy = evaluate(global, cfg.TestData, cfg.EvalBatch)
		}
		res.History = append(res.History, stats)
		if len(cfg.Observers) > 0 {
			for _, i := range participants {
				telemetry.EmitClient(cfg.Observers, telemetry.ClientEvent{
					Engine:      telemetry.EngineSync,
					Round:       t,
					Client:      i,
					Uploaded:    states[i].Decision.Upload,
					Relevance:   states[i].Relevance,
					UplinkBytes: states[i].Bytes,
				})
			}
			telemetry.EmitRound(cfg.Observers, stats.RoundEvent)
		}

		if cfg.TargetAccuracy > 0 && !isNaN(stats.Accuracy) && stats.Accuracy >= cfg.TargetAccuracy {
			break
		}
	}

	res.FinalParams = append([]float64(nil), params...)
	for i, c := range clients {
		res.ClientParams[i] = c.net.ParamVector()
	}
	return res, nil
}

// evaluate computes test accuracy in bounded-size forward batches.
func evaluate(net *nn.Network, test *dataset.Set, evalBatch int) float64 {
	if test == nil || test.Len() == 0 {
		return nan()
	}
	correct := 0
	for lo := 0; lo < test.Len(); lo += evalBatch {
		hi := lo + evalBatch
		if hi > test.Len() {
			hi = test.Len()
		}
		x, y := test.BatchView(lo, hi)
		pred := nn.Argmax(net.Forward(x))
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(test.Len())
}

// sampleClients returns the participant indices for one round in ascending
// order: all clients at full participation, otherwise a uniform sample of
// max(1, fraction·D).
func sampleClients(clients []*client, fraction float64, rng *xrand.Stream) []int {
	d := len(clients)
	if fraction <= 0 || fraction >= 1 {
		all := make([]int, d)
		for i := range all {
			all[i] = i
		}
		return all
	}
	k := int(fraction * float64(d))
	if k < 1 {
		k = 1
	}
	sample := rng.Perm(d)[:k]
	sort.Ints(sample)
	return sample
}

func validate(cfg *Config) error {
	switch {
	case cfg.Model == nil:
		return errors.New("fl: Config.Model is required")
	case len(cfg.ClientData) == 0:
		return errors.New("fl: at least one client shard is required")
	case cfg.Epochs <= 0:
		return errors.New("fl: Epochs must be positive")
	case cfg.Batch <= 0:
		return errors.New("fl: Batch must be positive")
	case cfg.LR == nil:
		return errors.New("fl: LR schedule is required")
	case cfg.Rounds <= 0:
		return errors.New("fl: Rounds must be positive")
	}
	for i, d := range cfg.ClientData {
		if d == nil || d.Len() == 0 {
			return fmt.Errorf("fl: client %d has no data", i)
		}
	}
	if cfg.EvalEvery == 0 {
		cfg.EvalEvery = 1
	}
	if cfg.EvalBatch <= 0 {
		cfg.EvalBatch = 64
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = len(cfg.ClientData)
	}
	if cfg.FeedbackStaleness <= 0 {
		cfg.FeedbackStaleness = 1
	}
	return nil
}
