package cluster

import (
	"encag/internal/block"
	"encag/internal/wire"
)

// chanLink is the in-process link. The sending rank's scheduler
// delivers straight into the receiving operation: a whole message by
// reference into its inbox, a pipelined segment by one copy into its
// receive stream's slot (the chan transport's "wire"). It does no
// encoding. Fault verdicts apply per message, or per sub-frame of a
// pipelined message: a stall delays it, a corruption flips a byte in
// the receiver's copy (the sender's buffers stay intact, as with a real
// wire), and a drop or partial write loses it in transit — there is no
// connection to re-establish, so the receiver's bounded recv deadline
// turns the loss into a structured error.
type chanLink struct{ m *mesh }

func attachChanLink(m *mesh) error {
	m.link = chanLink{m: m}
	return nil
}

// verdict applies the operation's fault verdict to one message or
// sub-frame, returning the corruption offset (-1: none) and whether it
// survives transit.
func (chanLink) verdict(e *opEngine, src, dst int) (corrupt int, ok bool) {
	v := e.inj.SendFrame(src, dst)
	e.inj.Sleep(v.Stall)
	return v.CorruptAt, !v.Drop && v.PartialKeep < 0
}

func (l chanLink) send(e *opEngine, src, dst int, msg block.Message) bool {
	corrupt, ok := l.verdict(e, src, dst)
	if !ok {
		if _, live := l.m.reg.get(e.id); live {
			// A lost message still takes its delivery number: its receive
			// starves rather than take the pair's next message.
			e.nextEnvSeq(src, dst)
		}
		return false
	}
	if corrupt >= 0 {
		msg = corruptMessage(msg, corrupt)
	}
	if _, live := l.m.reg.get(e.id); !live {
		l.m.lm.stragglers.Inc()
		return false // retired operation: dropped, never misrouted
	}
	e.deliver(src, dst, msg)
	return true
}

func (l chanLink) sendSeg(e *opEngine, src, dst int, sf wire.SegFrame) bool {
	corrupt, ok := l.verdict(e, src, dst)
	if !ok {
		if _, live := l.m.reg.get(e.id); live && sf.MsgChunks > 0 {
			// A lost first sub-frame still takes the message's delivery
			// slot: its receive starves rather than take the next message.
			e.newMsgRecv(src, dst, streamKey{src: src, dst: dst, id: sf.Stream}, int(sf.MsgChunks))
		}
		return false
	}
	sf.PayloadLen = len(sf.Payload)
	// A chanBody never fails to land, so recvSeg cannot return an error.
	_ = l.m.recvSeg(src, dst, e.id, sf, chanBody{b: sf.Payload, corrupt: corrupt})
	return true
}

func (chanLink) diagnose() error { return nil }

func (chanLink) teardown() {}

// chanBody is a chan sub-frame's payload: the sender's own bytes and
// the fault verdict's corruption offset (-1: none).
type chanBody struct {
	b       []byte
	corrupt int
}

func (b chanBody) fill(_ *opEngine, p []byte) error {
	copy(p, b.b)
	if b.corrupt >= 0 && len(p) > 0 {
		p[b.corrupt%len(p)] ^= 0x40
	}
	return nil
}

// take hands an inline chunk over by reference; only a corrupted one is
// copied, so the flip lands in the receiver's bytes alone.
func (b chanBody) take(*opEngine) ([]byte, error) {
	if b.corrupt < 0 || len(b.b) == 0 {
		return b.b, nil
	}
	p := make([]byte, len(b.b))
	return p, b.fill(nil, p)
}

func (chanBody) discard() error { return nil }

// corruptMessage returns msg with one payload byte flipped at the given
// offset into the concatenation of its chunk payloads (modulo total
// payload length). The affected chunk is cloned so the sender's own
// buffers stay intact.
func corruptMessage(msg block.Message, offset int) block.Message {
	var total int
	for _, c := range msg.Chunks {
		total += len(c.Payload)
	}
	if total == 0 {
		return msg
	}
	offset %= total
	out := block.Message{Chunks: append([]block.Chunk(nil), msg.Chunks...)}
	for i := range out.Chunks {
		n := len(out.Chunks[i].Payload)
		if offset >= n {
			offset -= n
			continue
		}
		tampered := append([]byte(nil), out.Chunks[i].Payload...)
		tampered[offset] ^= 0x40
		out.Chunks[i].Payload = tampered
		break
	}
	return out
}
