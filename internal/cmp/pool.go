package cmp

import "fmt"

// Pool is a fixed-size pool of reusable simulator Systems sharing one
// Config — the serving layer's "simulator fleet". A System is fully
// reusable across RunPipeline calls, RunPlan/RunPlanPlaced included
// (a multi-stage run builds its own NoC session; a single-stage run's
// burst simulators recycle through System.simPool), so a pooled
// instance is indistinguishable from a fresh one.
//
// Get blocks until an instance is free, bounding how many simulations
// run concurrently to the pool size; Put returns an instance for the
// next caller. The zero Pool is not usable — construct with NewPool.
type Pool struct {
	cfg Config
	ch  chan *System
}

// NewPool eagerly constructs n Systems from cfg. n <= 0 means 1.
func NewPool(cfg Config, n int) (*Pool, error) {
	if n <= 0 {
		n = 1
	}
	p := &Pool{cfg: cfg, ch: make(chan *System, n)}
	for i := 0; i < n; i++ {
		s, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("cmp: pool instance %d: %w", i, err)
		}
		p.ch <- s
	}
	return p, nil
}

// Get acquires a System, blocking until one is free.
func (p *Pool) Get() *System { return <-p.ch }

// Put releases a System back to the pool. Putting an instance that
// did not come from Get grows the pool and is a bug; Put panics when
// the pool is already full.
func (p *Pool) Put(s *System) {
	select {
	case p.ch <- s:
	default:
		panic("cmp: Pool.Put on a full pool")
	}
}

// Size returns the pool's capacity.
func (p *Pool) Size() int { return cap(p.ch) }

// Config returns the configuration the pool's Systems were built from.
func (p *Pool) Config() Config { return p.cfg }
