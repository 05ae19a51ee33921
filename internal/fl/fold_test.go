package fl

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/xrand"
)

// foldStates builds n uploading client states of dimension dim with
// gradient-scale deltas of mixed magnitude, encoded through codec when it
// is non-nil. Every third client withholds its update.
func foldStates(t testing.TB, n, dim int, codec UpdateCodec, seed int64) []ClientState {
	t.Helper()
	rng := xrand.New(seed)
	states := make([]ClientState, n)
	for c := range states {
		s := &states[c]
		s.Delta = make([]float64, dim)
		for j := range s.Delta {
			s.Delta[j] = rng.Norm() * math.Pow(10, float64(rng.Intn(5)-4))
		}
		s.Loss, s.Relevance = rng.Float64(), rng.Float64()
		s.Decision = core.Decision{Upload: c%3 != 2}
		s.Bytes = int64(dim) * 8
		if codec != nil {
			var err error
			if s.Payload, err = codec.EncodeInto(nil, s.Delta); err != nil {
				t.Fatal(err)
			}
			s.Bytes = int64(len(s.Payload))
			s.Delta = nil
		}
	}
	return states
}

// ascending returns 0, 1, …, n-1.
func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestFoldBlockInvariance pins that how Fold.Round splits the uploads into
// blocks leaves no trace in the Update bits: the block count follows
// GOMAXPROCS, and 1, 2, 3 and 7 must agree, raw and through a codec,
// weighted and not.
func TestFoldBlockInvariance(t *testing.T) {
	const clients, dim = 40, 57
	codec, err := compress.ParseName("top16+quantize8")
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, clients)
	for c := range weights {
		weights[c] = float64(3 + c%7)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name    string
		codec   UpdateCodec
		weights []float64
	}{
		{"raw", nil, nil},
		{"raw-weighted", nil, weights},
		{"codec", codec, nil},
		{"codec-weighted", codec, weights},
	} {
		t.Run(tc.name, func(t *testing.T) {
			states := foldStates(t, clients, dim, tc.codec, 17)
			var want []float64
			for _, procs := range []int{1, 2, 3, 7} {
				runtime.GOMAXPROCS(procs)
				fold := Fold{Dim: dim, Codec: tc.codec, Weights: tc.weights}
				res, err := fold.Round(states, ascending(clients), nil, make([]int, clients))
				if err != nil {
					t.Fatal(err)
				}
				if res.Uploaded != clients-clients/3 {
					t.Fatalf("GOMAXPROCS=%d: Uploaded = %d, want %d", procs, res.Uploaded, clients-clients/3)
				}
				if want == nil {
					want = res.Update
					continue
				}
				for j := range want {
					if math.Float64bits(res.Update[j]) != math.Float64bits(want[j]) {
						t.Fatalf("GOMAXPROCS=%d: coordinate %d = %x, GOMAXPROCS=1 gave %x", procs, j, math.Float64bits(res.Update[j]), math.Float64bits(want[j]))
					}
				}
			}
		})
	}
}

// failingCodec decodes through codec but fails on the payloads of bad.
type failingCodec struct {
	UpdateCodec
	bad map[byte]bool // first payload byte of the failing clients
}

var errBadPayload = errors.New("bad payload")

func (f failingCodec) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	if f.bad[payload[0]] {
		return dst, errBadPayload
	}
	return f.UpdateCodec.DecodeInto(dst, payload[1:], dim)
}

// TestFoldNamesLowestFailingClient pins that a decode error names the
// lowest failing client, whichever block its upload landed in.
func TestFoldNamesLowestFailingClient(t *testing.T) {
	const clients, dim = 30, 8
	codec, err := compress.ParseName("identity")
	if err != nil {
		t.Fatal(err)
	}
	states := foldStates(t, clients, dim, codec, 3)
	// Tag each payload with a private marker byte in its first position.
	for c := range states {
		states[c].Payload = append([]byte{byte(c)}, states[c].Payload...)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		fold := Fold{Dim: dim, Codec: failingCodec{UpdateCodec: codec, bad: map[byte]bool{22: true, 7: true, 28: true}}}
		_, err := fold.Round(states, ascending(clients), nil, make([]int, clients))
		if !errors.Is(err, errBadPayload) || !strings.Contains(err.Error(), "client 7 ") {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want client 7's decode error", procs, err)
		}
	}
}
