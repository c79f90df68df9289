package dram

import (
	"testing"
	"testing/quick"
)

func TestZeroBytesIsFree(t *testing.T) {
	ch := MustNew(DefaultConfig())
	if got := ch.StreamCycles(0); got != 0 {
		t.Errorf("StreamCycles(0) = %d", got)
	}
	if got := ch.StreamCycles(-5); got != 0 {
		t.Errorf("StreamCycles(-5) = %d", got)
	}
}

func TestSmallReadPaysFullLatency(t *testing.T) {
	cfg := DefaultConfig()
	ch := MustNew(cfg)
	got := ch.StreamCycles(64)
	min := int64(cfg.TRP + cfg.TRCD + cfg.TCAS)
	if got < min {
		t.Errorf("64B read = %d cycles, must be >= %d (row open + CAS)", got, min)
	}
	if got > min+20 {
		t.Errorf("64B read = %d cycles, too slow", got)
	}
}

func TestLargeStreamApproachesPeakBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	ch := MustNew(cfg)
	const n = 8 << 20 // 8 MB
	bw := float64(n) / float64(ch.StreamCycles(n))
	if bw > cfg.BytesPerCycle {
		t.Errorf("effective bandwidth %v exceeds peak %v", bw, cfg.BytesPerCycle)
	}
	if bw < 0.7*cfg.BytesPerCycle {
		t.Errorf("streaming bandwidth %v too far below peak %v", bw, cfg.BytesPerCycle)
	}
}

func TestMoreBanksHideMoreActivation(t *testing.T) {
	one := DefaultConfig()
	one.Banks = 1
	four := DefaultConfig()
	ch1 := MustNew(one)
	ch4 := MustNew(four)
	const n = 1 << 20
	if ch4.StreamCycles(n) >= ch1.StreamCycles(n) {
		t.Errorf("4 banks (%d) not faster than 1 bank (%d)",
			ch4.StreamCycles(n), ch1.StreamCycles(n))
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config must be rejected")
	}
	cfg := DefaultConfig()
	cfg.Banks = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero banks must be rejected")
	}
}

// Property: StreamCycles is monotone non-decreasing in transfer size.
func TestQuickMonotone(t *testing.T) {
	ch := MustNew(DefaultConfig())
	f := func(a, b uint32) bool {
		x, y := int64(a%(1<<24)), int64(b%(1<<24))
		if x > y {
			x, y = y, x
		}
		return ch.StreamCycles(x) <= ch.StreamCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cycles are at least the pure-bandwidth floor.
func TestQuickBandwidthFloor(t *testing.T) {
	cfg := DefaultConfig()
	ch := MustNew(cfg)
	f := func(a uint32) bool {
		n := int64(a % (1 << 24))
		if n == 0 {
			return true
		}
		return float64(ch.StreamCycles(n)) >= float64(n)/cfg.BytesPerCycle
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
