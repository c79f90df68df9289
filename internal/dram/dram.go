// Package dram models the LPDDR3 main-memory channel of the paper's
// platform (Table II: 1 channel, 1 rank, 4 banks, 1 GB) at the level
// the accelerator model needs: how many core cycles a contiguous
// streaming transfer takes, accounting for row activations, CAS
// latency, bank interleaving and channel bandwidth.
//
// Core cycles are 1 GHz; LPDDR3-1600 on a 32-bit channel delivers
// 6.4 GB/s peak, i.e. 6.4 bytes per core cycle.
package dram

import "fmt"

// Config describes the memory channel. Latencies are in core cycles.
type Config struct {
	Banks         int
	RowBytes      int     // row-buffer size per bank
	BytesPerCycle float64 // peak channel bandwidth per core cycle

	TRCD int // activate → column command
	TCAS int // column command → first data
	TRP  int // precharge
	TRAS int // minimum row-open time

	CapacityBytes int64
}

// DefaultConfig returns an LPDDR3-1600 channel per Table II.
func DefaultConfig() Config {
	return Config{
		Banks:         4,
		RowBytes:      4096,
		BytesPerCycle: 6.4,
		TRCD:          15,
		TCAS:          12,
		TRP:           15,
		TRAS:          34,
		CapacityBytes: 1 << 30, // 1 GB
	}
}

func (c Config) validate() error {
	if c.Banks <= 0 || c.RowBytes <= 0 || c.BytesPerCycle <= 0 {
		return fmt.Errorf("dram: invalid config %+v", c)
	}
	return nil
}

// Channel is a stateless timing model of one memory channel. (Row
// buffer state between queries is intentionally not retained: the
// accelerator model issues large streaming transfers whose cost is
// dominated by within-transfer behaviour.)
type Channel struct {
	cfg Config
}

// New creates a channel with cfg.
func New(cfg Config) (*Channel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Channel{cfg: cfg}, nil
}

// MustNew is New that panics on config error.
func MustNew(cfg Config) *Channel {
	ch, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

// Config returns the channel configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// StreamCycles returns the core cycles to read (or write) a contiguous
// region of n bytes.
//
// The transfer opens ceil(n/RowBytes) rows. The first access pays the
// full tRP+tRCD+tCAS pipe; subsequent row activations overlap with
// data transfer thanks to bank interleaving, but can hide at most
// (Banks−1)/Banks of their cost — with B banks, every B-th activation
// serializes behind the shared command/data bus.
func (ch *Channel) StreamCycles(n int64) int64 {
	if n <= 0 {
		return 0
	}
	c := ch.cfg
	rows := (n + int64(c.RowBytes) - 1) / int64(c.RowBytes)
	transfer := int64(float64(n)/c.BytesPerCycle) + 1
	first := int64(c.TRP + c.TRCD + c.TCAS)
	// Activation cost of the remaining rows, with (Banks−1) of every
	// Banks activations hidden under the data stream.
	actEach := int64(c.TRCD + c.TRP)
	exposed := ((rows - 1) + int64(c.Banks) - 1) / int64(c.Banks) * actEach
	return first + transfer + exposed
}
