package noc

import (
	"math/rand"
	"testing"

	"learn2scale/internal/topology"
)

// TestFastForwardMatchesDenseTicking compares fast-forwarded runs
// against the dense cycle-by-cycle loop over a corpus of random bursts
// with staggered injection times. Every Result field must be
// byte-identical: the skipped cycles are provably no-ops, so only the
// wall-clock cost of the loop may differ.
func TestFastForwardMatchesDenseTicking(t *testing.T) {
	cfg := DefaultConfig(topology.NewMesh(3, 3))
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i] = Message{
				Src:   rng.Intn(9),
				Dst:   rng.Intn(9),
				Bytes: rng.Intn(3000),
				Time:  int64(rng.Intn(2000)), // sparse enough to leave idle gaps
			}
		}
		ff := MustNew(cfg)
		dense := MustNew(cfg)
		dense.noFastForward = true
		rf, errF := ff.RunBurst(msgs)
		rd, errD := dense.RunBurst(msgs)
		if errF != nil || errD != nil {
			t.Fatalf("seed %d: errors ff=%v dense=%v", seed, errF, errD)
		}
		if rf != rd {
			t.Errorf("seed %d: fast-forward diverged:\nff    %+v\ndense %+v", seed, rf, rd)
		}
		if ff.LoopIters() > dense.LoopIters() {
			t.Errorf("seed %d: fast-forward ran %d iterations, dense only %d",
				seed, ff.LoopIters(), dense.LoopIters())
		}
		if dense.LoopIters() != rd.Cycles {
			t.Errorf("seed %d: dense loop iters %d != cycles %d",
				seed, dense.LoopIters(), rd.Cycles)
		}
	}
}

// TestFastForwardSkipsIdleGap pins the point of the optimisation: a
// burst whose messages are separated by a multi-million-cycle gap must
// drain with a loop-iteration count proportional to the active cycles,
// not to the simulated time span.
func TestFastForwardSkipsIdleGap(t *testing.T) {
	cfg := cfg4x4()
	const gap = 5_000_000
	msgs := []Message{
		{Src: 0, Dst: 15, Bytes: 4096},
		{Src: 15, Dst: 0, Bytes: 4096, Time: gap},
	}
	s := MustNew(cfg)
	res, err := s.RunBurst(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= gap {
		t.Errorf("drain at cycle %d should extend past the %d-cycle gap", res.Cycles, gap)
	}
	if it := s.LoopIters(); it > 10_000 {
		t.Errorf("fast-forward executed %d loop iterations for %d simulated cycles",
			it, res.Cycles)
	}
	checkConservation(t, cfg, msgs, res)
}

// TestFastForwardPreservesMaxCyclesError: a jump past the horizon must
// trip the same overrun error the dense loop reports, instead of
// silently simulating beyond MaxCycles.
func TestFastForwardPreservesMaxCyclesError(t *testing.T) {
	cfg := cfg4x4()
	cfg.MaxCycles = 1000
	msgs := []Message{
		{Src: 0, Dst: 1, Bytes: 64},
		{Src: 1, Dst: 2, Bytes: 64, Time: 50_000},
	}
	ff := MustNew(cfg)
	dense := MustNew(cfg)
	dense.noFastForward = true
	_, errF := ff.RunBurst(msgs)
	_, errD := dense.RunBurst(msgs)
	if errF == nil || errD == nil {
		t.Fatalf("expected overrun errors, got ff=%v dense=%v", errF, errD)
	}
	if errF.Error() != errD.Error() {
		t.Errorf("error mismatch:\nff    %v\ndense %v", errF, errD)
	}
}

// TestRunBurstReuseZeroAlloc pins the state-reuse property: after the
// first run has sized the plane, queue, and packet-arena storage,
// repeated bursts on one simulator stay off the heap entirely.
func TestRunBurstReuseZeroAlloc(t *testing.T) {
	cfg := cfg4x4()
	s := MustNew(cfg)
	var msgs []Message
	for d := 1; d < 16; d++ {
		msgs = append(msgs, Message{Src: 0, Dst: d, Bytes: 2048, Time: int64(d * 7)})
	}
	want, err := s.RunBurst(msgs) // size all reusable storage
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		got, err := s.RunBurst(msgs)
		if err != nil || got != want {
			t.Fatalf("reused run diverged: %+v err=%v", got, err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state RunBurst allocates %.1f objects/run, want 0", avg)
	}
}

// TestSimulatorReuseMatchesFresh: results from a reused simulator must
// equal a fresh simulator's on differing back-to-back bursts (state
// fully reset between runs).
func TestSimulatorReuseMatchesFresh(t *testing.T) {
	cfg := cfg4x4()
	reused := MustNew(cfg)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(10)
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i] = Message{
				Src:   rng.Intn(16),
				Dst:   rng.Intn(16),
				Bytes: rng.Intn(6000),
				Time:  int64(rng.Intn(300)),
			}
		}
		got, err1 := reused.RunBurst(msgs)
		want, err2 := MustNew(cfg).RunBurst(msgs)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: errors %v / %v", trial, err1, err2)
		}
		if got != want {
			t.Errorf("trial %d: reused simulator diverged:\nreused %+v\nfresh  %+v", trial, got, want)
		}
	}
}

// BenchmarkSparseBurst16 measures a time-sparse synchronization
// schedule — sixteen staggered layer-transition messages spread over a
// wide cycle span — where idle-cycle fast-forward carries the speedup.
func BenchmarkSparseBurst16(b *testing.B) {
	cfg := cfg4x4()
	var msgs []Message
	for i := 0; i < 16; i++ {
		msgs = append(msgs, Message{
			Src:   i,
			Dst:   15 - i,
			Bytes: 2048,
			Time:  int64(i) * 60_000,
		})
	}
	sim := MustNew(cfg)
	if _, err := sim.RunBurst(msgs); err != nil { // size the reusable storage
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunBurst(msgs); err != nil {
			b.Fatal(err)
		}
	}
}
