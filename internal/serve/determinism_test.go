package serve

import (
	"context"
	"math"
	"testing"

	"learn2scale/internal/parallel"
)

// TestBatchedMatchesSequential is the serving layer's bit-identity
// contract: a batch of K requests answers logits byte-identical to K
// sequential single-request inferences, for every scheme at float32
// and int16, at group sizes K ∈ {2, 3, 5, 8} (ragged and full GEMM
// quads) and host worker counts 1, 2 and 7. The batched path runs one
// pipelined simulation pass with K in-flight slots and one batched
// forward pass; the sequential path runs K separate forwards — the
// logits must not care.
func TestBatchedMatchesSequential(t *testing.T) {
	models := testModels(t)
	const maxK = 8
	for _, w := range []string{"1", "2", "7"} {
		t.Run("workers="+w, func(t *testing.T) {
			t.Setenv(parallel.EnvWorkers, w)

			// Sequential reference: direct forward passes, bits captured.
			sequential := make(map[ModelKey][][]uint32)
			for _, m := range models {
				var ref [][]uint32
				for si := 0; si < maxK; si++ {
					ref = append(ref, logitBits(m.Infer(m.Samples[si], nil)))
				}
				sequential[m.Key] = ref
			}

			// Batched: every step one K-request batch through the server.
			s := testServer(t, Config{Depth: 4})
			defer s.Close()
			for _, K := range []int{2, 3, 5, 8} {
				samples := make([]int, K)
				for k := range samples {
					samples[k] = (k + K) % maxK
				}
				for _, m := range models {
					out, err := s.RunScript(context.Background(), []ScriptStep{{
						Model:     ModelName(m.Key.Scheme),
						Precision: m.Key.Precision.String(),
						Samples:   samples,
					}})
					if err != nil {
						t.Fatalf("%s: %v", m.Key, err)
					}
					for k, resp := range out[0] {
						if resp.BatchSize != K {
							t.Fatalf("%s sample %d: batch %d, want %d", m.Key, k, resp.BatchSize, K)
						}
						got := logitBits(resp.Logits)
						want := sequential[m.Key][samples[k]]
						if len(got) != len(want) {
							t.Fatalf("%s K=%d sample %d: %d logits, want %d", m.Key, K, samples[k], len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s K=%d sample %d logit %d: batched %08x, sequential %08x",
									m.Key, K, samples[k], i, got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestWorkerCountInvariance: the same request answers bit-identical
// logits at different host worker counts.
func TestWorkerCountInvariance(t *testing.T) {
	models := testModels(t)
	byWorkers := make(map[string]map[ModelKey][]uint32)
	for _, w := range []string{"1", "2", "7"} {
		t.Setenv(parallel.EnvWorkers, w)
		got := make(map[ModelKey][]uint32)
		for _, m := range models {
			got[m.Key] = logitBits(m.Infer(m.Samples[2], nil))
		}
		byWorkers[w] = got
	}
	for _, w := range []string{"2", "7"} {
		for key, want := range byWorkers["1"] {
			got := byWorkers[w][key]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s logit %d: workers=%s %08x, workers=1 %08x", key, i, w, got[i], want[i])
				}
			}
		}
	}
}

func logitBits(logits []float32) []uint32 {
	bits := make([]uint32, len(logits))
	for i, v := range logits {
		bits[i] = math.Float32bits(v)
	}
	return bits
}
