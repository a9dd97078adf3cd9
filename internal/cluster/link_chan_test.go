package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/fault"
)

// exchangeEncrypted is the minimal two-rank encrypted exchange: rank
// r's message to its peer is the pair's only traffic, so frame 0 of
// the 0->1 pair is that message.
func exchangeEncrypted(p *Proc, mine block.Message) block.Message {
	other := 1 - p.Rank()
	ct := p.Encrypt(mine.Chunks...)
	in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ct}}, other)
	return block.Concat(mine, p.DecryptAll(in))
}

// sendTwiceEncrypted has each rank send its block sealed twice, as two
// messages, and receive only the first: a receive takes its own
// message, never the pair's next one.
func sendTwiceEncrypted(p *Proc, mine block.Message) block.Message {
	other := 1 - p.Rank()
	first := p.Isend(other, block.Message{Chunks: []block.Chunk{p.Encrypt(mine.Chunks...)}})
	second := p.Isend(other, block.Message{Chunks: []block.Chunk{p.Encrypt(mine.Chunks...)}})
	in := p.Recv(other)
	p.Wait(first)
	p.Wait(second)
	return block.Concat(mine, p.DecryptAll(in))
}

// The chan link has no retransmission: a corrupted message fails
// authentication, a dropped one starves its receive into the deadline.
// Both fail only their own operation; the session runs the next one.
func TestChanWholeMessageFaultsFailClosed(t *testing.T) {
	const size = 64 << 10
	cases := []struct {
		name string
		algo Algorithm
		size int64
		rule fault.Rule
		op   string
	}{
		{"corrupt", exchangeEncrypted, size, fault.Rule{Src: 0, Dst: 1, Frame: 0, Kind: fault.Corrupt, Offset: 1234}, "open"},
		{"drop", exchangeEncrypted, size, fault.Rule{Src: 0, Dst: 1, Frame: 0, Kind: fault.Drop}, "recv"},
		// A lost message keeps its delivery number, so its receive
		// starves rather than take the pair's next message.
		{"drop-first-whole", sendTwiceEncrypted, 1024, fault.Rule{Src: 0, Dst: 1, Frame: 0, Kind: fault.Drop}, "recv"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{P: 2, N: 1, Mapping: BlockMapping, RecvTimeout: 2 * time.Second}
			s, err := OpenSession(spec, SessionConfig{Engine: EngineChan})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			plan := &fault.Plan{Rules: []fault.Rule{tc.rule}}
			_, err = s.Collective(context.Background(), Op{Algo: tc.algo, MsgSize: tc.size, Plan: plan})
			var re *RankError
			if !errors.As(err, &re) {
				t.Fatalf("%s yielded %v, want a structured rank error", tc.name, err)
			}
			if re.Op != tc.op {
				t.Fatalf("%s failed with op %q, want %q", tc.name, re.Op, tc.op)
			}
			res, err := s.Collective(context.Background(), Op{Algo: exchangeEncrypted, MsgSize: size})
			if err != nil {
				t.Fatalf("follow-up collective failed: %v", err)
			}
			if err := ValidateGather(spec, size, res.Results, true); err != nil {
				t.Fatalf("follow-up gather corrupted: %v", err)
			}
		})
	}
}
