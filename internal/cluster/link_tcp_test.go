package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/metrics"
	"encag/internal/seal"
	"encag/internal/wire"
)

// countConn counts the completed socket reads beneath a connection's
// reader.
type countConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

// readerHarness runs the TCP link's real connection reader (serveConn)
// over one loopback connection from rank 0 to rank 1. No operation is
// registered, so every well-formed frame is decoded in full and then
// dropped as a straggler; the straggler counter tells the test a frame
// has been consumed.
type readerHarness struct {
	l      *tcpLink
	client net.Conn
	conn   *countConn
	fw     *wire.FrameWriter
	seq    uint64
}

func newReaderHarness(t *testing.T) *readerHarness {
	t.Helper()
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	m := &mesh{
		spec: spec,
		lm:   newLiveMetrics(metrics.NewRegistry(), spec, EngineTCP),
		reg:  &opRegistry{ops: make(map[uint32]*opEngine)},
	}
	l := &tcpLink{
		m:       m,
		gates:   [][]*seqGate{{{}, {}}, {{}, {}}},
		tracked: make(map[*readTracker]struct{}),
	}
	m.link = l
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		client.Close()
		t.Fatal(err)
	}
	h := &readerHarness{l: l, client: client, conn: &countConn{Conn: server}, fw: wire.NewFrameWriter()}
	done := make(chan struct{})
	m.wg.Add(1)
	go l.serveConn(0, 1, h.conn, nil, done)
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return h
}

// frame encodes the harness's next whole-message frame.
func (h *readerHarness) frame(t *testing.T, msg block.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.fw.WriteMsg(&buf, 0, 7, h.seq, msg); err != nil {
		t.Fatal(err)
	}
	h.seq++
	return buf.Bytes()
}

// consumed waits until the reader has decoded n frames in all.
func (h *readerHarness) consumed(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.l.m.lm.stragglers.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("reader decoded %d frames, want %d", h.l.m.lm.stragglers.Value(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// smallMsg is a one-chunk, one-block plaintext message of n bytes.
func smallMsg(n int) block.Message {
	return block.NewPlain(0, block.FillPattern(0, int64(n)))
}

// inflated returns a frame of smallMsg shape whose chunk payload length
// field claims far more bytes than the frame carries.
func inflated(frame []byte) []byte {
	// magic, src, seq, op, chunk count; then flags, tag, block count and
	// one (origin, length) block precede the payload length.
	const plenAt = 4 + 4 + 8 + 4 + 4 + 1 + 4 + 4 + 12
	bad := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(bad[plenAt:], 1<<20)
	return bad
}

// awaitStall polls the link's stall diagnosis until it reports, and
// returns how long after since it did.
func (h *readerHarness) awaitStall(t *testing.T, since time.Time) time.Duration {
	t.Helper()
	deadline := since.Add(readerStallAfter + 4*time.Second)
	for time.Now().Before(deadline) {
		if err := h.l.readerStalled(); err != nil {
			if !strings.Contains(err.Error(), "0->1 starved mid-frame") {
				t.Fatalf("stall diagnosis names the wrong stream: %v", err)
			}
			return time.Since(since)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("reader starved by an inflated length field was never reported")
	return 0
}

func (h *readerHarness) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := h.client.Write(b); err != nil {
		t.Fatal(err)
	}
}

// A reader starved mid-frame by a corrupted length field is reported
// once it has made no progress for readerStallAfter, whether the bad
// frame arrived on its own or in the same socket read as the good frame
// before it; a healthy reader idle between frames is never reported.
func TestReaderStallDiagnosis(t *testing.T) {
	t.Run("alone", func(t *testing.T) {
		t.Parallel()
		h := newReaderHarness(t)
		h.write(t, h.frame(t, smallMsg(100)))
		h.consumed(t, 1)
		start := time.Now()
		h.write(t, inflated(h.frame(t, smallMsg(100))))
		if d := h.awaitStall(t, start); d < readerStallAfter {
			t.Fatalf("stall reported after %v, before readerStallAfter (%v)", d, readerStallAfter)
		}
	})
	t.Run("buffered-behind-good-frame", func(t *testing.T) {
		t.Parallel()
		h := newReaderHarness(t)
		good := h.frame(t, smallMsg(100))
		both := append(append([]byte(nil), good...), inflated(h.frame(t, smallMsg(100)))...)
		start := time.Now()
		h.write(t, both)
		h.consumed(t, 1)
		if d := h.awaitStall(t, start); d < readerStallAfter {
			t.Fatalf("stall reported after %v, before readerStallAfter (%v)", d, readerStallAfter)
		}
	})
	t.Run("idle-between-frames", func(t *testing.T) {
		t.Parallel()
		h := newReaderHarness(t)
		h.write(t, h.frame(t, smallMsg(100)))
		h.consumed(t, 1)
		h.write(t, h.frame(t, smallMsg(4096)))
		h.consumed(t, 2)
		until := time.Now().Add(readerStallAfter + 300*time.Millisecond)
		for time.Now().Before(until) {
			if err := h.l.readerStalled(); err != nil {
				t.Fatalf("healthy idle reader reported: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// Decoding a small frame costs at most two socket reads: the buffered
// reader takes the header fields out of memory instead of one read per
// field. Each frame is the shape of ag-small-tcp's inter-node hs2
// message (a node's bundle: four sealed 1 KB blocks, one chunk each)
// and is sent only once the reader has consumed the one before, as in a
// collective.
func TestReaderSocketReadsPerFrame(t *testing.T) {
	h := newReaderHarness(t)
	var msg block.Message
	for r := 0; r < 4; r++ {
		msg.Chunks = append(msg.Chunks, block.Chunk{
			Enc:     true,
			Blocks:  []block.Block{{Origin: r, Len: 1024}},
			Payload: make([]byte, 1024+seal.Overhead),
		})
	}
	const k = 200
	for i := int64(1); i <= k; i++ {
		if err := h.fw.WriteMsg(h.client, 0, 7, h.seq, msg); err != nil {
			t.Fatal(err)
		}
		h.seq++
		h.consumed(t, i)
	}
	if reads := h.conn.reads.Load(); reads > 2*k {
		t.Fatalf("%d socket reads for %d frames, want at most %d", reads, k, 2*k)
	} else {
		t.Logf("%d socket reads for %d frames", reads, k)
	}
}

// A reconnect that completes after teardown must not install its fresh
// connection: nothing would ever close it, and the reader on its far end
// would keep the mesh's Close waiting forever.
func TestPairConnReplaceAfterTeardownCloses(t *testing.T) {
	old, oldPeer := net.Pipe()
	defer oldPeer.Close()
	fresh, freshPeer := net.Pipe()
	defer freshPeer.Close()
	pc := &pairConn{conn: old}
	pc.close()
	pc.replace(fresh)
	if pc.get() != old {
		t.Fatal("replace after teardown installed the fresh connection")
	}
	for name, c := range map[string]net.Conn{"old": old, "fresh": fresh} {
		// Setting a deadline fails only on a closed pipe, and never blocks.
		if err := c.SetDeadline(time.Now()); err == nil {
			t.Fatalf("%s connection still open after teardown", name)
		}
	}
}
