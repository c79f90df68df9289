package cmp

import (
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/partition"
)

// FuzzPipelineSchedule throws arbitrary stage groupings, core splits,
// batch counts and transient-fault masks at the pipelined scheduler
// and asserts the two properties that must survive any schedule:
//
//   - no deadlock: every run terminates with a report (the scheduler's
//     event loop errors out instead of hanging, and any error here is
//     a bug because the inputs are normalized to valid configurations);
//   - conservation: without structural faults every injected packet is
//     either ejected intact or accounted lost
//     (Packets == EjectedPackets + LostPackets), and fill/steady/drain
//     telescope exactly to the total;
//   - failure bookkeeping: TransfersFailed counts each (batch, layer)
//     transfer with a lost slice exactly once, whether a dead core
//     dropped it before injection or the network lost it.
//
// Dead compute tiles are fair game (their transfers are filtered before
// injection); dead links/routers are not, since disconnected endpoints
// legitimately break per-packet conservation.
func FuzzPipelineSchedule(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(0), uint16(0), uint8(0), uint8(1))
	f.Add(uint8(2), uint8(3), uint64(7), uint16(50), uint8(1), uint8(0))
	f.Add(uint8(3), uint8(2), uint64(42), uint16(120), uint8(2), uint8(4))
	f.Add(uint8(4), uint8(4), uint64(0xdead), uint16(199), uint8(1), uint8(8))

	f.Fuzz(func(t *testing.T, depthRaw, batchesRaw uint8, cutSeed uint64, dropMilli uint16, budgetRaw, deadRaw uint8) {
		const cores = 16
		plan := partition.NewPlan(netzoo.LeNet(), cores)
		L := len(plan.Layers)

		depth := 1 + int(depthRaw)%L
		if depth > cores {
			depth = cores
		}
		batches := 1 + int(batchesRaw)%4

		// Derive strictly increasing cuts and a positive core split from
		// the seed with a small xorshift stream, so every input maps to
		// a valid configuration.
		state := cutSeed | 1
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		cuts := make([]int, depth)
		used := make([]bool, L)
		used[0] = true
		for s := 1; s < depth; s++ {
			c := 1 + next(L-1)
			for used[c] {
				c = 1 + c%(L-1)
			}
			used[c] = true
			cuts[s] = c
		}
		for i := 1; i < depth; i++ { // insertion-sort the cut points
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		coresPerStage := make([]int, depth)
		left := cores
		for s := 0; s < depth; s++ {
			coresPerStage[s] = 1
			left--
		}
		for left > 0 {
			coresPerStage[next(depth)]++
			left--
		}

		cfg := DefaultConfig(cores)
		fc := &fault.Config{
			Seed:        int64(cutSeed),
			DropProb:    float64(dropMilli%200) / 1000,
			RetryBudget: int(budgetRaw % 3),
		}
		if deadRaw%4 == 0 {
			fc.DeadCores = []int{int(deadRaw) % cores}
		}
		if fc.Active() {
			cfg.Fault = fc
		}

		pp, err := partition.NewPipelinePlanCustom(plan, cuts, coresPerStage)
		if err != nil {
			t.Fatalf("cuts %v cores %v: %v", cuts, coresPerStage, err)
		}
		rep, err := MustNew(cfg).runPipeline(pp, batches, nil)
		if err != nil {
			t.Fatalf("cuts %v cores %v batches %d: %v", cuts, coresPerStage, batches, err)
		}
		if rep.NoC.Packets != rep.NoC.EjectedPackets+rep.NoC.LostPackets {
			t.Fatalf("cuts %v: conservation violated: %d packets != %d ejected + %d lost",
				cuts, rep.NoC.Packets, rep.NoC.EjectedPackets, rep.NoC.LostPackets)
		}
		if got := rep.FillCycles + rep.SteadyCycles + rep.DrainCycles; got != rep.TotalCycles {
			t.Fatalf("cuts %v: fill %d + steady %d + drain %d != total %d",
				cuts, rep.FillCycles, rep.SteadyCycles, rep.DrainCycles, rep.TotalCycles)
		}
		for b := 1; b < batches; b++ {
			if rep.Completions[b] <= rep.Completions[b-1] {
				t.Fatalf("cuts %v: completions not increasing: %v", cuts, rep.Completions)
			}
		}
		failedGroups := map[[2]int]bool{}
		for _, ft := range rep.Failed {
			failedGroups[[2]int{ft.Batch, ft.Layer}] = true
		}
		if rep.TransfersFailed != int64(len(failedGroups)) {
			t.Fatalf("cuts %v: TransfersFailed %d, but %d (batch, layer) transfers lost slices",
				cuts, rep.TransfersFailed, len(failedGroups))
		}
	})
}
