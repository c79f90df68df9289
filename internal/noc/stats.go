package noc

import (
	"fmt"
	"sort"
	"strings"
)

// LinkStats summarizes per-link flit loads of the most recent run —
// the congestion analysis view (which mesh links carried the burst).
type LinkStats struct {
	// Loads holds one entry per directed link that carried traffic.
	Loads []LinkLoad
	Max   int64
	Total int64
}

// LinkLoad is the flit count of one directed inter-router link.
type LinkLoad struct {
	From, To int
	Flits    int64
}

// AvgLoad returns the mean flits per used link.
func (ls LinkStats) AvgLoad() float64 {
	if len(ls.Loads) == 0 {
		return 0
	}
	return float64(ls.Total) / float64(len(ls.Loads))
}

// Imbalance returns max/avg link load — 1.0 is perfectly balanced.
func (ls LinkStats) Imbalance() float64 {
	avg := ls.AvgLoad()
	if avg == 0 {
		return 0
	}
	return float64(ls.Max) / avg
}

// LinkUtilization reports the per-link flit loads of the last session
// (or open-loop run), sorted by decreasing load.
func (s *Simulator) LinkUtilization() LinkStats {
	var ls LinkStats
	for node := range s.linkLoad {
		for op := PortEast; op <= PortSouth; op++ {
			n := s.linkLoad[node][op-1]
			if n == 0 {
				continue
			}
			ls.Loads = append(ls.Loads, LinkLoad{From: node, To: s.nbr[node][op], Flits: n})
			ls.Total += n
			if n > ls.Max {
				ls.Max = n
			}
		}
	}
	sort.Slice(ls.Loads, func(i, j int) bool {
		if ls.Loads[i].Flits != ls.Loads[j].Flits {
			return ls.Loads[i].Flits > ls.Loads[j].Flits
		}
		if ls.Loads[i].From != ls.Loads[j].From {
			return ls.Loads[i].From < ls.Loads[j].From
		}
		return ls.Loads[i].To < ls.Loads[j].To
	})
	return ls
}

// TopN returns the n most-loaded links (all of them when n exceeds
// the count, none when n <= 0). Loads are already sorted by
// decreasing flits, ties broken by (From, To).
func (ls LinkStats) TopN(n int) []LinkLoad {
	if n <= 0 {
		return nil
	}
	if n > len(ls.Loads) {
		n = len(ls.Loads)
	}
	return ls.Loads[:n]
}

// String renders the top-loaded links; when the table is truncated a
// trailer says how many links were omitted.
func (ls LinkStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "links=%d total=%d max=%d avg=%.1f imbalance=%.2f\n",
		len(ls.Loads), ls.Total, ls.Max, ls.AvgLoad(), ls.Imbalance())
	for _, l := range ls.TopN(8) {
		fmt.Fprintf(&b, "  %2d -> %2d: %d flits\n", l.From, l.To, l.Flits)
	}
	if rest := len(ls.Loads) - 8; rest > 0 {
		fmt.Fprintf(&b, "  (+%d more)\n", rest)
	}
	return b.String()
}
