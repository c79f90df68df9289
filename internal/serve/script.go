package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"time"
)

// ScriptStep is one line of a deterministic request script: a set of
// requests that MUST form exactly one dynamic batch. Script mode is
// how the serving path joins the repo's byte-identity record family —
// batch composition under free-running load is timing-dependent, but a
// script pins it, so the stable flight record and live stream are
// byte-identical at any worker count.
//
// Wire form is JSONL, one step per line:
//
//	{"model": "ss", "precision": "int16", "samples": [0, 3, 5]}
type ScriptStep struct {
	Model     string `json:"model"`
	Precision string `json:"precision,omitempty"`
	Samples   []int  `json:"samples"`
}

// ReadScript parses a JSONL request script.
func ReadScript(r io.Reader) ([]ScriptStep, error) {
	var steps []ScriptStep
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		var step ScriptStep
		if err := decodeStrict(raw, &step); err != nil {
			return nil, fmt.Errorf("serve: script line %d: %w", line, err)
		}
		if len(step.Samples) == 0 {
			return nil, fmt.Errorf("serve: script line %d: no samples", line)
		}
		steps = append(steps, step)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("serve: empty script")
	}
	return steps, nil
}

// RunScript replays a request script through the dispatcher: each
// step's samples form exactly ONE pre-composed dynamic batch, handed
// to the dispatcher whole (bypassing the arrival-timing window), so a
// fixed script yields a byte-identical stable flight record and live
// stream at any worker count. Responses are returned in sample order,
// all carrying BatchSize == len(step.Samples).
func (s *Server) RunScript(ctx context.Context, steps []ScriptStep) ([][]*Response, error) {
	out := make([][]*Response, len(steps))
	for i, step := range steps {
		key, err := (&Request{Model: step.Model, Precision: step.Precision}).Key()
		if err != nil {
			return nil, fmt.Errorf("serve: script step %d: %w", i, err)
		}
		m := s.Model(key)
		if m == nil {
			return nil, fmt.Errorf("serve: script step %d: no model %s", i, key)
		}
		batch := make([]*pending, len(step.Samples))
		for j, sample := range step.Samples {
			if sample < 0 || sample >= len(m.Samples) {
				return nil, fmt.Errorf("serve: script step %d: sample %d out of range [0,%d)", i, sample, len(m.Samples))
			}
			batch[j] = &pending{
				ctx:      ctx,
				key:      key,
				in:       m.Samples[sample],
				admitted: time.Now(),
				resp:     make(chan result, 1),
			}
		}
		if err := s.submitBatch(batch); err != nil {
			return nil, fmt.Errorf("serve: script step %d: %w", i, err)
		}
		resps := make([]*Response, len(batch))
		for j, p := range batch {
			r := <-p.resp
			if r.err != nil {
				return nil, fmt.Errorf("serve: script step %d sample %d: %w", i, j, r.err)
			}
			resps[j] = r.resp
		}
		out[i] = resps
	}
	return out, nil
}

// submitBatch hands a pre-composed batch to the dispatcher, which
// counts its admissions (executeScripted). Like admitOne it holds the
// admission read lock so a drain cannot start between the closed check
// and the handoff.
func (s *Server) submitBatch(batch []*pending) error {
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.closed {
		return ErrDraining
	}
	select {
	case s.batchq <- batch:
		return nil
	case <-s.quit:
		return ErrDraining
	}
}
