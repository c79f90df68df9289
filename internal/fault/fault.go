// Package fault is the deterministic, seedable fault-injection layer
// of the NoC/CMP simulation. It models the failure classes a mesh
// interconnect ages into — links that die outright, links that drop
// flits with some probability, links with degraded (slower) lanes,
// dead routers and dead compute cores — together with the routing and
// retry policy that lets an inference survive them.
//
// Two properties shape the design, mirroring internal/obs:
//
//  1. Determinism. Every fault decision is a pure function of the
//     fault Config's seed and the identity of the event it applies to
//     (packet id, retransmission attempt, link, flit sequence). There
//     is no mutable RNG stream, so decisions are independent of host
//     scheduling and of the order in which concurrent per-layer NoC
//     simulations run — flight records of faulted sweeps stay
//     byte-identical at every `-workers` count.
//
//  2. Nested severity. Random scenarios couple across fault rates: a
//     link dead (or a flit dropped) at rate r stays dead (dropped) at
//     every rate r' > r, because each decision compares one fixed hash
//     value against the rate. Sweeps over a rate grid therefore
//     degrade monotonically instead of resampling an unrelated fault
//     pattern per point.
//
// Routing around structural faults uses up*/down* routing (see
// routes.go), which is deadlock-free by construction for arbitrary
// dead-link/dead-router masks.
package fault

import (
	"encoding/json"
	"fmt"
	"io"

	"learn2scale/internal/topology"
)

// Link is one bidirectional mesh link between two adjacent nodes,
// normalized so A < B. A dead link removes both directions: the
// physical failure modes a link fault stands in for (broken trace,
// dead SerDes, disabled power domain) take out the channel pair.
type Link struct {
	A int `json:"a"`
	B int `json:"b"`
}

// LinkBetween returns the normalized link connecting nodes a and b.
func LinkBetween(a, b int) Link {
	if a > b {
		a, b = b, a
	}
	return Link{A: a, B: b}
}

// Retry policy defaults, applied when the Config fields are zero.
const (
	DefaultRetryBudget  = 3  // retransmissions per packet after the first attempt
	DefaultRetryBackoff = 32 // cycles before the first retransmission; doubles per attempt
)

// Config describes one fault scenario. The zero value injects no
// faults and is behaviorally identical to running without a fault
// layer at all; tests pin that equivalence bit-for-bit.
type Config struct {
	// Seed drives every probabilistic decision (flit drops, random
	// scenario generation). Two runs with equal Config are identical.
	Seed int64 `json:"seed"`

	// DeadLinks are permanently failed links. Traffic re-routes around
	// them (up*/down*); node pairs they disconnect lose their
	// transfers.
	DeadLinks []Link `json:"dead_links,omitempty"`

	// DeadRouters are failed mesh routers: all four of a dead router's
	// links are dead, and messages sourced at or destined to it are
	// lost outright (its local port cannot inject or eject).
	DeadRouters []int `json:"dead_routers,omitempty"`

	// DeadCores are failed compute tiles whose router still works.
	// A dead core computes nothing and produces no activations, so
	// every consumer of its slice zero-fills; handled by internal/cmp.
	DeadCores []int `json:"dead_cores,omitempty"`

	// DropProb is the per-flit probability that a link traversal
	// corrupts the flit (transient fault). The packet still drains —
	// wormhole flow control cannot abandon a worm mid-network — but it
	// fails its end-to-end check at ejection and must be retransmitted.
	DropProb float64 `json:"drop_prob,omitempty"`

	// FlakyLinks restricts DropProb to the listed links. Empty means
	// every link is flaky (uniform link quality).
	FlakyLinks []Link `json:"flaky_links,omitempty"`

	// SlowLinks add SlowExtraCycles of latency to every flit crossing
	// them (a degraded lane running at a reduced rate).
	SlowLinks       []Link `json:"slow_links,omitempty"`
	SlowExtraCycles int    `json:"slow_extra_cycles,omitempty"`

	// RetryBudget bounds retransmissions per packet: 0 means
	// DefaultRetryBudget, negative disables retransmission entirely.
	// A packet that exhausts the budget is lost and its transfer is
	// zero-filled by the receiver (graceful degradation).
	RetryBudget int `json:"retry_budget,omitempty"`

	// RetryBackoff is the base retransmission delay in cycles; the
	// k-th retransmission waits RetryBackoff<<(k-1) cycles after the
	// corrupt ejection (exponential backoff). 0 means
	// DefaultRetryBackoff.
	RetryBackoff int64 `json:"retry_backoff,omitempty"`
}

// Active reports whether the config injects any fault at all.
func (c *Config) Active() bool {
	if c == nil {
		return false
	}
	return len(c.DeadLinks) > 0 || len(c.DeadRouters) > 0 || len(c.DeadCores) > 0 ||
		c.DropProb > 0 || (len(c.SlowLinks) > 0 && c.SlowExtraCycles > 0)
}

// Structural reports whether the config kills links or routers —
// the faults that force re-routing.
func (c *Config) Structural() bool {
	if c == nil {
		return false
	}
	return len(c.DeadLinks) > 0 || len(c.DeadRouters) > 0
}

// Budget returns the effective retransmission budget.
func (c *Config) Budget() int {
	if c == nil {
		return 0
	}
	if c.RetryBudget < 0 {
		return 0
	}
	if c.RetryBudget == 0 {
		return DefaultRetryBudget
	}
	return c.RetryBudget
}

// Backoff returns the delay in cycles before retransmission attempt
// `attempt` (1-based): base<<(attempt-1), capped at 1<<20 so extreme
// budgets cannot overflow.
func (c *Config) Backoff(attempt int) int64 {
	base := c.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d > 1<<20 {
		d = 1 << 20
	}
	return d
}

// Validate checks the config against the mesh it will be injected
// into: links must join adjacent in-range nodes, routers and cores
// must be in range, probabilities in [0, 1].
func (c *Config) Validate(m topology.Mesh) error {
	if c == nil {
		return nil
	}
	if c.DropProb < 0 || c.DropProb > 1 {
		return fmt.Errorf("fault: drop probability %v outside [0, 1]", c.DropProb)
	}
	if c.SlowExtraCycles < 0 {
		return fmt.Errorf("fault: negative slow-link latency %d", c.SlowExtraCycles)
	}
	checkLinks := func(kind string, links []Link) error {
		for _, l := range links {
			if l.A < 0 || l.B >= m.Nodes() || l.A >= l.B {
				return fmt.Errorf("fault: %s link %d-%d outside %dx%d mesh (want a < b, both in range)",
					kind, l.A, l.B, m.W, m.H)
			}
			if m.HopDist(l.A, l.B) != 1 {
				return fmt.Errorf("fault: %s link %d-%d joins non-adjacent nodes", kind, l.A, l.B)
			}
		}
		return nil
	}
	if err := checkLinks("dead", c.DeadLinks); err != nil {
		return err
	}
	if err := checkLinks("flaky", c.FlakyLinks); err != nil {
		return err
	}
	if err := checkLinks("slow", c.SlowLinks); err != nil {
		return err
	}
	for _, r := range c.DeadRouters {
		if r < 0 || r >= m.Nodes() {
			return fmt.Errorf("fault: dead router %d outside %dx%d mesh", r, m.W, m.H)
		}
	}
	for _, d := range c.DeadCores {
		if d < 0 || d >= m.Nodes() {
			return fmt.Errorf("fault: dead core %d outside %dx%d mesh", d, m.W, m.H)
		}
	}
	return nil
}

// WriteJSON serializes the config as indented, key-sorted JSON
// (encoding/json marshals struct fields in declaration order, which
// is fixed, so output is byte-deterministic).
func (c *Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadConfig parses a fault config written by WriteJSON. Unknown
// fields are rejected so a typoed fault class fails loudly instead of
// silently injecting nothing.
func ReadConfig(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	c := &Config{}
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("fault: decode config: %w", err)
	}
	return c, nil
}

// splitmix64 is the standard 64-bit finalizing mixer; statistically
// strong, dependency-free and trivially reproducible in any language.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash01 folds the words into a uniform float64 in [0, 1).
func hash01(words ...uint64) float64 {
	h := uint64(0x51ab2cd915f3a5e7)
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return float64(h>>11) / float64(1<<53)
}

// DropFlit decides whether the flit traversal identified by (salt,
// packet id, retransmission attempt, directed link id, flit sequence)
// is corrupted under the config's DropProb. Pure: equal identities
// always decide alike, and the decision is threshold-coupled across
// drop probabilities (nested severity).
func (c *Config) DropFlit(salt, pkt int64, attempt int, link, seq int) bool {
	if c == nil || c.DropProb <= 0 {
		return false
	}
	return hash01(uint64(c.Seed), uint64(salt), uint64(pkt),
		uint64(attempt), uint64(link), uint64(seq)) < c.DropProb
}

// Scenario returns the uniform transient-fault scenario used by the
// fault-sweep experiment: every link drops flits with probability
// rate, with the default retry policy. Decisions are threshold-
// coupled across rates (see package comment), so a sweep over an
// ascending rate grid is a nested sequence of fault patterns.
func Scenario(rate float64, seed int64) *Config {
	return &Config{Seed: seed, DropProb: rate}
}

// StructuralScenario returns a mixed scenario at the given severity:
// each link is dead with probability rate/4 (nested in rate via the
// per-link hash) and the survivors drop flits with probability rate.
// Used by the robustness example and the dead-link stress tests; the
// headline sweep uses the purely transient Scenario so its cycle
// counts isolate retry cost from route changes.
func StructuralScenario(m topology.Mesh, rate float64, seed int64) *Config {
	c := &Config{Seed: seed, DropProb: rate}
	for _, l := range MeshLinks(m) {
		if hash01(uint64(seed), 0xdead, uint64(l.A), uint64(l.B)) < rate/4 {
			c.DeadLinks = append(c.DeadLinks, l)
		}
	}
	return c
}

// MeshLinks enumerates every link of the mesh in normalized,
// deterministic order (by lower node id, east link before south).
func MeshLinks(m topology.Mesh) []Link {
	var links []Link
	for id := 0; id < m.Nodes(); id++ {
		c := m.Coord(id)
		if c.X+1 < m.W {
			links = append(links, LinkBetween(id, id+1))
		}
		if c.Y+1 < m.H {
			links = append(links, LinkBetween(id, id+m.W))
		}
	}
	return links
}
