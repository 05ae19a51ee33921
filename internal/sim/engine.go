package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/emu"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// Run executes the simulated federated training in virtual time.
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	n := len(cfg.ClientData)
	server := cfg.Model()
	params := server.ParamVector()
	dim := len(params)

	var met *Families
	if cfg.Registry != nil {
		met = MetricFamilies(cfg.Registry)
	}

	// Per-client streams, fixed for the whole run. Training shuffles come
	// from fl.ClientStream in compat mode (bit parity with fl.Run) or the
	// compact splitmix64 derivation otherwise; timing draws (availability,
	// arrival, latency) always use a compact stream of their own, consumed
	// strictly in that order within each round.
	trainRng := make([]*xrand.Stream, n)
	timingRng := make([]*xrand.Stream, n)
	for c := 0; c < n; c++ {
		if cfg.CompatStreams {
			trainRng[c] = fl.ClientStream(cfg.Seed, c)
		} else {
			trainRng[c] = xrand.DeriveCompact(cfg.Seed, "sim-train", c)
		}
		timingRng[c] = xrand.DeriveCompact(cfg.Seed, "sim-timing", c)
	}

	// One model replica per worker goroutine, reset per client by the
	// solver. Workers touch only per-client state — the client's streams,
	// step state and delay slot — so the result is independent of how
	// clients are partitioned onto workers.
	nets := make([]*nn.Network, cfg.Shards)
	for w := range nets {
		nets[w] = cfg.Model()
	}
	step := fl.ClientStep{Epochs: cfg.Epochs, Batch: cfg.Batch, Filter: cfg.Filter, Codec: cfg.Compressor}
	fold := fl.Fold{Dim: dim, Codec: cfg.Compressor}
	states := make([]fl.ClientState, n)
	delays := make([]time.Duration, n)
	errs := make([]error, cfg.Shards)
	var trained []int // the round's expected clients, ascending

	res := &Result{
		SkipCounts:      make([]int, n),
		StragglerCounts: make([]int, n),
		FilterName:      cfg.Filter.Name(),
	}

	q := emu.NewQuorum(n)
	var heap eventHeap
	expected := make([]bool, n)

	feedback := make([]float64, dim) // all zeros: "no feedback yet"
	var signBuf []int8
	cumUploads := 0
	var cumBytes int64
	var clock time.Duration // virtual now; rounds advance it monotonically

	for t := 1; t <= cfg.Rounds; t++ {
		lr := cfg.LR.At(t)
		roundStart := clock

		var feedbackSigns []int8
		if !core.AllZero(feedback) {
			signBuf = core.SignsInto(signBuf[:0], feedback)
			feedbackSigns = signBuf
		}

		// Availability draws happen here, on the driving goroutine in
		// ascending client order, before any worker touches the round.
		trained = trained[:0]
		for c := 0; c < n; c++ {
			expected[c] = cfg.Availability >= 1 || timingRng[c].Float64() < cfg.Availability
			if expected[c] {
				trained = append(trained, c)
			}
		}

		// Fan the per-client work out to the workers: the client step, then
		// the reply-delay draw. Contiguous blocks keep each worker's memory
		// access local; any partition would produce the same results.
		var wg sync.WaitGroup
		per := (n + cfg.Shards - 1) / cfg.Shards
		for w := 0; w < cfg.Shards; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				for c := lo; c < hi; c++ {
					if !expected[c] {
						continue
					}
					if err := step.Run(&states[c], nets[w], cfg.ClientData[c], trainRng[c], params, feedback, feedbackSigns, lr, t); err != nil {
						errs[w] = fmt.Errorf("client %d: %w", c, err)
						return
					}
					delay := cfg.Arrival.Sample(timingRng[c]) + cfg.Latency.Sample(timingRng[c])
					if cfg.BandwidthBytesPerSec > 0 {
						delay += time.Duration(float64(states[c].Bytes) / cfg.BandwidthBytesPerSec * float64(time.Second))
					}
					delays[c] = max(delay, 0)
					if cfg.Compressor != nil {
						// The fold decodes the payload: drop the raw delta now,
						// so the round holds one compact payload per client.
						states[c].Delta = nil
					}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		// Blocks ascend with the worker index and each worker stops at its
		// first failure, so this reports the lowest failing client.
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sim: round %d %w", t, err)
			}
		}

		// Schedule the round: every expected reply in ascending client
		// order, then the deadline. The push order is the (time, seq)
		// tie-break, so zero-latency replies drain in client order and a
		// reply landing exactly on the deadline beats the deadline event.
		q.BeginRound(t, expected)
		for _, c := range trained {
			heap.push(Event{At: roundStart + delays[c], Kind: EventArrive, Client: c, Round: t})
		}
		if cfg.RoundDeadline > 0 {
			heap.push(Event{At: roundStart + cfg.RoundDeadline, Kind: EventDeadline, Round: t})
		}

		// Drain events in virtual-time order until the round closes: all
		// expected replies in, or the deadline fires. Events tagged with
		// earlier rounds are the straggler tail — replies drain as late
		// frames; outrun deadlines are inert.
		deadlineFired := false
		roundEnd := roundStart
		for !q.Complete() {
			ev, ok := heap.pop()
			if !ok {
				return nil, fmt.Errorf("sim: round %d: event heap drained with %d of %d replies outstanding", t, q.Accepted(), q.Expected())
			}
			if ev.Round != t {
				if ev.Kind == EventArrive {
					if v := q.Classify(ev.Client, ev.Round); v != emu.VerdictLate {
						return nil, fmt.Errorf("sim: round %d: stale reply from client %d classified %v, want late", t, ev.Client, v)
					}
					res.LateReplies++
					if met != nil {
						met.LateReplies.Inc()
					}
				}
				continue
			}
			switch ev.Kind {
			case EventDeadline:
				deadlineFired = true
				roundEnd = ev.At
			case EventArrive:
				switch v := q.Classify(ev.Client, ev.Round); v {
				case emu.VerdictAccept:
					roundEnd = ev.At
					if met != nil {
						met.ReplyLatency.Observe((ev.At - roundStart).Seconds())
						met.ReplyBytes.Observe(float64(states[ev.Client].Bytes))
					}
				case emu.VerdictDuplicate, emu.VerdictLate, emu.VerdictFuture, emu.VerdictUnknown:
					return nil, fmt.Errorf("sim: round %d: current-round reply from client %d classified %v", t, ev.Client, v)
				}
			}
			if deadlineFired {
				break
			}
		}
		if accepted := q.Accepted(); accepted < cfg.MinQuorum {
			if deadlineFired {
				return nil, fmt.Errorf("sim: round %d: quorum not met at deadline %v: %d of %d replies (minimum %d)",
					t, cfg.RoundDeadline, accepted, q.Expected(), cfg.MinQuorum)
			}
			return nil, fmt.Errorf("sim: round %d: only %d replies possible (minimum %d)", t, accepted, cfg.MinQuorum)
		}

		// Aggregate the accepted uploads through fl.Run's exact fold, so
		// neither arrival order nor shard count reaches the bits.
		// Stragglers' loss and relevance still enter the round means.
		round, err := fold.Round(states, trained, q.Replied, res.SkipCounts)
		if err != nil {
			return nil, fmt.Errorf("sim: round %d %w", t, err)
		}
		for _, c := range trained {
			if !q.Replied(c) {
				res.StragglerCounts[c]++
			}
			// Folded: release the delta so a large population does not
			// keep one per client alive between rounds.
			states[c].Delta = nil
		}
		uploaded := round.Uploaded
		if uploaded > 0 {
			//cmfl:order-pinned rounds apply to the model strictly sequentially; t-order is the algorithm
			tensor.Axpy(1, round.Update, params)
			feedback = round.Update
		}
		cumUploads += uploaded
		cumBytes += round.UplinkBytes

		if obs, ok := cfg.Filter.(fl.FilterFeedback); ok {
			obs.ObserveRound(t, uploaded, q.Expected())
		}

		clock = roundEnd
		stats := RoundStats{
			RoundEvent: telemetry.RoundEvent{
				Engine:         telemetry.EngineSim,
				Round:          t,
				Participants:   q.Expected(),
				Uploaded:       uploaded,
				Skipped:        q.Accepted() - uploaded,
				CumUploads:     cumUploads,
				CumUplinkBytes: cumBytes,
				Dropped:        q.StragglerCount(),
				Accuracy:       math.NaN(),
			},
			VirtualStart:  roundStart,
			VirtualEnd:    roundEnd,
			DeadlineFired: deadlineFired,
			TrainLoss:     round.TrainLoss,
			MeanRelevance: round.MeanRelevance,
		}
		if met != nil {
			met.RoundDuration.Observe((roundEnd - roundStart).Seconds())
		}
		res.History = append(res.History, stats)
		if len(cfg.Observers) > 0 {
			for _, c := range trained {
				if !q.Replied(c) {
					continue
				}
				telemetry.EmitClient(cfg.Observers, telemetry.ClientEvent{
					Engine:      telemetry.EngineSim,
					Round:       t,
					Client:      c,
					Uploaded:    states[c].Decision.Upload,
					Relevance:   states[c].Relevance,
					UplinkBytes: states[c].Bytes,
				})
			}
			telemetry.EmitRound(cfg.Observers, stats.RoundEvent)
		}
	}

	res.FinalParams = append([]float64(nil), params...)
	res.VirtualDuration = clock
	return res, nil
}
