package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"encag"
)

// Every check here runs after the operation it checks has been timed.

// checkGather verifies a gather byte for byte: every rank must hold
// every origin's block exactly as contributed, and the security audit
// must be clean.
func checkGather(res *encag.RunResult, want [][]byte) error {
	if len(res.Gathered) != len(want) {
		return fmt.Errorf("gather has %d rank views, want %d", len(res.Gathered), len(want))
	}
	for r, view := range res.Gathered {
		if len(view) != len(want) {
			return fmt.Errorf("rank %d gathered %d blocks, want %d", r, len(view), len(want))
		}
		for o, b := range view {
			if !bytes.Equal(b, want[o]) {
				return fmt.Errorf("rank %d holds a wrong block from origin %d", r, o)
			}
		}
	}
	if !res.SecurityOK {
		return fmt.Errorf("security audit failed: %s", strings.Join(res.Violations, "; "))
	}
	return nil
}

// xorReference is the expected all-reduce result under XOR.
func xorReference(data [][]byte) []byte {
	out := append([]byte(nil), data[0]...)
	for _, d := range data[1:] {
		encag.XORCombine(out, d)
	}
	return out
}

func checkReduce(res *encag.ReduceResult, want []byte) error {
	if !bytes.Equal(res.Result, want) {
		return fmt.Errorf("all-reduce result differs from the XOR reference")
	}
	if !res.SecurityOK {
		return fmt.Errorf("security audit failed: %s", strings.Join(res.Violations, "; "))
	}
	return nil
}

// checkWire reports any input block found on the captured inter-node
// wire: the paper's invariant is that no plaintext crosses a node
// boundary. The capture keeps only a prefix of the traffic, so the check
// covers the bytes captured (truncation is reported by the caller).
func checkWire(w *encag.WireReport, blocks [][]byte) error {
	if w == nil {
		return fmt.Errorf("TCP session has no wire capture")
	}
	for i, b := range blocks {
		if w.Observed(b) {
			return fmt.Errorf("input block %d crossed a node boundary in plaintext", i)
		}
	}
	return nil
}

// simMetrics runs the same collective on a sim-engine session; the six
// paper metrics are deterministic counts, so a real run must match them
// exactly.
func simMetrics(spec encag.Spec, alg encag.Alg, m int64) (encag.Metrics, error) {
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, spec, encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	if err != nil {
		return encag.Metrics{}, err
	}
	defer s.Close()
	res, err := s.Simulate(ctx, alg, m)
	if err != nil {
		return encag.Metrics{}, err
	}
	return res.Metrics, nil
}

// checkSim compares observed metrics with the simulator's.
func checkSim(spec encag.Spec, alg encag.Alg, m int64, got encag.Metrics) error {
	want, err := simMetrics(spec, alg, m)
	if err != nil {
		return fmt.Errorf("simulate %s m=%d: %w", alg, m, err)
	}
	if got != want {
		return fmt.Errorf("%s m=%d: six metrics %+v differ from the simulator's %+v", alg, m, got, want)
	}
	return nil
}
