package cluster

import "encag/internal/block"

// chanLink is the in-process link. The sending rank's scheduler
// delivers each message by reference straight into the receiving
// operation's inbox. It does no encoding. Fault verdicts apply per
// message: a stall delays it, a corruption flips a byte in the
// receiver's copy (the sender's buffers stay intact, as with a real
// wire), and a drop or partial write loses it in transit — there is no
// connection to re-establish, so the receiver's bounded recv deadline
// turns the loss into a structured error.
type chanLink struct{ m *mesh }

func attachChanLink(m *mesh) error {
	m.link = chanLink{m: m}
	return nil
}

func (l chanLink) send(e *opEngine, src, dst int, msg block.Message) bool {
	v := e.inj.SendFrame(src, dst)
	e.inj.Sleep(v.Stall)
	if v.Drop || v.PartialKeep >= 0 {
		if _, live := l.m.reg.get(e.id); live {
			// A lost message still takes its delivery number: its receive
			// starves rather than take the pair's next message.
			e.nextEnvSeq(src, dst)
		}
		return false
	}
	if v.CorruptAt >= 0 {
		msg = corruptMessage(msg, v.CorruptAt)
	}
	if _, live := l.m.reg.get(e.id); !live {
		l.m.lm.stragglers.Inc()
		return false // retired operation: dropped, never misrouted
	}
	e.deliver(src, dst, msg)
	return true
}

func (chanLink) diagnose() error { return nil }

func (chanLink) teardown() {}

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
