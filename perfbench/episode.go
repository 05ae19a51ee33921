package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
)

// episode is one setup followed by one engine call of the workload's round
// budget, with everything the benchmark measured and checked about it.
type episode struct {
	traced bool
	// build is input synthesis; engineSetup the engine's own set-up (model
	// construction; for emu also listen, dial and the hello barrier) up to
	// the start of round 1: the return of the engine's last Model() call.
	build, engineSetup time.Duration
	setupEnd           time.Time
	roundEnds          []time.Time
	rounds             []time.Duration // wall time per round, from observer timestamps
	events             []telemetry.RoundEvent
	// phase is the wall time from the start of round 1 to the last RoundEvent.
	phase time.Duration
	// ttt is the wall time from the start of round 1 to the first round
	// whose held-out accuracy met the target; negative when not reached or
	// not evaluated per round.
	ttt          time.Duration
	clientRounds int
	cpu          time.Duration
	rt           runtimeDelta
	out          *outcome
	accuracy     float64
	digest       uint64
	// payload is the size of one upload as the benchmark computes it from
	// the codec, independently of the engine's accounting.
	payload int
	// failures lists failed output checks; any failure fails every
	// client-round of the episode.
	failures []string
	// stragglers counts emu client-rounds cut by the wall-clock deadline.
	stragglers int
	tr         *tracer
}

func (ep *episode) fail(format string, args ...any) {
	ep.failures = append(ep.failures, fmt.Sprintf(format, args...))
}

// failedClientRounds counts the client-rounds this episode lost.
func (ep *episode) failedClientRounds() int {
	if len(ep.failures) > 0 {
		return ep.clientRounds
	}
	return ep.stragglers
}

// runEpisode builds the workload's inputs from the seed and makes one engine
// call. It returns the inputs too, so a traced run can replay its layers on
// them.
func runEpisode(w workload, seed int64, tiny, traced bool) (*episode, *inputs) {
	ep := &episode{traced: traced, ttt: -1, accuracy: math.NaN()}
	t0 := time.Now()
	in, err := w.build(seed, tiny)
	ep.build = time.Since(t0)
	if err != nil {
		ep.fail("build inputs: %v", err)
		return ep, nil
	}
	ep.clientRounds = len(in.clients) * in.rounds

	var mu sync.Mutex
	var lastModel time.Time
	model := func() *nn.Network {
		n := in.model()
		now := time.Now()
		mu.Lock()
		if now.After(lastModel) {
			lastModel = now
		}
		mu.Unlock()
		return n
	}
	if traced {
		ep.tr = newTracer(in.rounds, len(in.clients))
	}
	obs := telemetry.Funcs{Round: func(e telemetry.RoundEvent) {
		now := time.Now()
		ep.events = append(ep.events, e)
		ep.roundEnds = append(ep.roundEnds, now)
		if ep.tr != nil {
			ep.tr.roundDone(e.Round, now)
		}
	}}
	h := hooks{model: model, filter: in.newFilter(), codec: in.codec, observers: []telemetry.Observer{obs}}
	if ep.tr != nil {
		h.filter = &tracedFilter{inner: h.filter, t: ep.tr}
		if h.codec != nil {
			h.codec = &tracedCodec{inner: h.codec, t: ep.tr}
		}
	}

	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	if ep.tr != nil {
		ep.tr.epoch = start
	}
	out, err := w.run(in, h)
	end := time.Now()
	ep.cpu = cpuTime() - cpu0
	ep.rt = readRuntime().sub(rt0)
	mu.Lock()
	ep.setupEnd = lastModel
	mu.Unlock()
	if err != nil {
		ep.fail("engine: %v", err)
		return ep, in
	}
	ep.out = out
	if ep.setupEnd.IsZero() {
		ep.fail("engine never called the Model factory")
		return ep, in
	}
	ep.engineSetup = ep.setupEnd.Sub(start)
	prev := ep.setupEnd
	for i, at := range ep.roundEnds {
		ep.rounds = append(ep.rounds, at.Sub(prev))
		prev = at
		if e := ep.events[i]; in.target > 0 && ep.ttt < 0 && e.Evaluated() && e.Accuracy >= in.target {
			ep.ttt = at.Sub(ep.setupEnd)
		}
	}
	ep.phase = prev.Sub(ep.setupEnd)
	if ep.tr != nil {
		ep.tr.finish(ep.setupEnd, end)
	}
	ep.check(w, in)
	return ep, in
}

// check runs the output checks that do not need other episodes.
func (ep *episode) check(w workload, in *inputs) {
	if len(ep.events) != in.rounds {
		ep.fail("%d round events for %d rounds", len(ep.events), in.rounds)
		return
	}
	params := ep.out.params
	for _, v := range params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ep.fail("final parameters are not finite")
			return
		}
	}
	ep.digest = digest(params)
	acc, err := heldOutAccuracy(in.model, params, in.test)
	if err != nil {
		ep.fail("held-out accuracy: %v", err)
		return
	}
	ep.accuracy = acc

	// Uplink bytes are conserved: every upload costs one payload, every
	// accepted skip one notification, and nothing else is counted.
	payload, err := payloadBytes(in.codec, params)
	if err != nil {
		ep.fail("payload size: %v", err)
		return
	}
	ep.payload = payload
	var want int64
	for _, e := range ep.events {
		want += int64(e.Uploaded)*int64(payload) + int64(e.Skipped)*fl.SkipNotificationBytes
	}
	if got := ep.events[len(ep.events)-1].CumUplinkBytes; got != want {
		ep.fail("uplink bytes not conserved: CumUplinkBytes %d, uploads×payload + skips×%d = %d", got, fl.SkipNotificationBytes, want)
	}
	if w.engine == "emu" {
		if app := ep.events[len(ep.events)-1].CumUplinkBytes; ep.out.wireUp < app {
			ep.fail("emu uplink wire bytes %d below application bytes %d", ep.out.wireUp, app)
		}
		for _, e := range ep.events {
			ep.stragglers += e.Dropped
		}
	}
}

// payloadBytes is the size of one upload: the codec's encoding of a
// dim-length vector, or dim raw float64s without a codec. Both codecs the
// workloads use produce a size that depends on the dimension alone.
func payloadBytes(codec fl.UpdateCodec, probe []float64) (int, error) {
	if codec == nil {
		return 8 * len(probe), nil
	}
	p, err := codec.EncodeInto(nil, probe)
	return len(p), err
}

// digest is the FNV-64a hash of the parameters' IEEE-754 bits: equal
// digests mean bit-identical models.
func digest(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// heldOutAccuracy evaluates params on the held-out set in batches of 64,
// the engines' evaluation batch.
func heldOutAccuracy(model func() *nn.Network, params []float64, test *dataset.Set) (float64, error) {
	net := model()
	if err := net.SetParamVector(params); err != nil {
		return 0, err
	}
	correct := 0
	for lo := 0; lo < test.Len(); lo += 64 {
		x, y := test.BatchView(lo, min(lo+64, test.Len()))
		for i, p := range nn.Argmax(net.Forward(x)) {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(test.Len()), nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeDelta holds runtime/metrics counters, or their change over a call.
type runtimeDelta struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64Histogram, metrics.KindBad:
		}
		return 0
	}
	return runtimeDelta{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, allocBytes: a.allocBytes - b.allocBytes}
}
