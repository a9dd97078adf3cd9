package block

import (
	"testing"
	"testing/quick"

	"encag/internal/seal"
)

func TestWireLenAccountsOverhead(t *testing.T) {
	plain := Chunk{Blocks: []Block{{Origin: 0, Len: 100}, {Origin: 1, Len: 50}}}
	if plain.WireLen() != 150 {
		t.Fatalf("plain WireLen = %d, want 150", plain.WireLen())
	}
	enc := Chunk{Enc: true, Blocks: plain.Blocks}
	if enc.WireLen() != 150+seal.Overhead {
		t.Fatalf("enc WireLen = %d, want %d", enc.WireLen(), 150+seal.Overhead)
	}
	m := Message{Chunks: []Chunk{plain, enc}}
	if m.WireLen() != 300+seal.Overhead {
		t.Fatalf("msg WireLen = %d", m.WireLen())
	}
	if m.PlainLen() != 300 {
		t.Fatalf("msg PlainLen = %d", m.PlainLen())
	}
	if m.NumBlocks() != 4 || m.NumCiphertexts() != 1 || !m.HasCiphertext() {
		t.Fatal("counting helpers wrong")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	blocks := []Block{{Origin: 7, Len: 1 << 20}, {Origin: 0, Len: 1}, {Origin: 1023, Len: 0}}
	hdr := EncodeHeader(blocks)
	got, err := DecodeHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(blocks))
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Fatalf("block %d = %+v, want %+v", i, got[i], blocks[i])
		}
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	hdr := EncodeHeader([]Block{{Origin: 1, Len: 2}})
	hdr[0] ^= 0xFF
	if _, err := DecodeHeader(hdr); err == nil {
		t.Fatal("bad magic accepted")
	}
	hdr2 := EncodeHeader([]Block{{Origin: 1, Len: 2}})
	if _, err := DecodeHeader(hdr2[:len(hdr2)-1]); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(origins []uint16, lens []uint32) bool {
		n := len(origins)
		if len(lens) < n {
			n = len(lens)
		}
		blocks := make([]Block, n)
		for i := 0; i < n; i++ {
			blocks[i] = Block{Origin: int(origins[i]), Len: int64(lens[i])}
		}
		got, err := DecodeHeader(EncodeHeader(blocks))
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != blocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeHappyPathRealMode(t *testing.T) {
	const p, m = 4, 32
	var msg Message
	// One chunk holding blocks 2,3 together, plus single chunks 0 and 1.
	both := append(FillPattern(2, m), FillPattern(3, m)...)
	msg.Append(Chunk{Blocks: []Block{{2, m}, {3, m}}, Payload: both})
	msg.Append(NewPlain(0, FillPattern(0, m)).Chunks...)
	msg.Append(NewPlain(1, FillPattern(1, m)).Chunks...)
	payloads, err := Normalize(msg, p, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != p {
		t.Fatalf("payloads = %d, want %d", len(payloads), p)
	}
}

func TestNormalizeFailures(t *testing.T) {
	const m = 8
	mk := func(origins ...int) Message {
		var msg Message
		for _, o := range origins {
			msg.Append(NewPlain(o, FillPattern(o, m)).Chunks...)
		}
		return msg
	}
	if _, err := Normalize(mk(0, 1), 3, m, true); err == nil {
		t.Fatal("missing origin accepted")
	}
	if _, err := Normalize(mk(0, 1, 1), 3, m, true); err == nil {
		t.Fatal("duplicate origin accepted")
	}
	if _, err := Normalize(mk(0, 1, 5), 3, m, true); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
	bad := mk(0, 1, 2)
	bad.Chunks[1].Payload = FillPattern(7, m) // wrong contents
	if _, err := Normalize(bad, 3, m, true); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	encd := mk(0, 1, 2)
	encd.Chunks[0].Enc = true
	if _, err := Normalize(encd, 3, m, true); err == nil {
		t.Fatal("encrypted chunk in final result accepted")
	}
	wrongLen := mk(0, 1)
	wrongLen.Append(Chunk{Blocks: []Block{{2, m + 1}}, Payload: FillPattern(2, m+1)})
	if _, err := Normalize(wrongLen, 3, m, true); err == nil {
		t.Fatal("wrong block length accepted")
	}
}

func TestNormalizeSimMode(t *testing.T) {
	const p, m = 8, 1024
	var msg Message
	for o := p - 1; o >= 0; o-- {
		msg.Append(NewSim(o, m).Chunks...)
	}
	if _, err := Normalize(msg, p, m, false); err != nil {
		t.Fatal(err)
	}
}

func TestSortChunksByOrigin(t *testing.T) {
	chunks := []Chunk{
		{Blocks: []Block{{3, 1}}},
		{Blocks: []Block{{0, 1}, {1, 1}}},
		{Blocks: []Block{{2, 1}}},
	}
	SortChunksByOrigin(chunks)
	want := []int{0, 2, 3}
	for i, w := range want {
		if chunks[i].Blocks[0].Origin != w {
			t.Fatalf("chunk %d origin = %d, want %d", i, chunks[i].Blocks[0].Origin, w)
		}
	}
}

func TestConcatAndClone(t *testing.T) {
	a := NewSim(0, 10)
	b := NewSim(1, 20)
	c := Concat(a, b)
	if c.NumBlocks() != 2 || c.WireLen() != 30 {
		t.Fatal("concat wrong")
	}
	d := c.Clone()
	d.Chunks[0].Blocks[0].Origin = 99
	if c.Chunks[0].Blocks[0].Origin == 99 {
		t.Fatal("clone shares block slice")
	}
}

func TestPatternDeterministic(t *testing.T) {
	a := FillPattern(5, 100)
	b := FillPattern(5, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pattern not deterministic")
		}
	}
	c := FillPattern(6, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("patterns for different origins identical")
	}
}

// The doubling fill and the in-place check must agree with Pattern byte
// for byte on both sides of the 256-byte period, and the check must
// reject a single flipped byte wherever it sits.
func TestFillAndCheckMatchPattern(t *testing.T) {
	for _, n := range []int64{0, 1, 255, 256, 257, 4096, 65536 + 1001} {
		for _, origin := range []int{0, 3, 255} {
			buf := FillPattern(origin, n)
			if int64(len(buf)) != n {
				t.Fatalf("FillPattern(%d, %d) has %d bytes", origin, n, len(buf))
			}
			for i, b := range buf {
				if b != Pattern(origin, int64(i)) {
					t.Fatalf("FillPattern(%d, %d)[%d] = %#x, want %#x", origin, n, i, b, Pattern(origin, int64(i)))
				}
			}
			if !isPattern(origin, buf) {
				t.Fatalf("isPattern rejects FillPattern(%d, %d)", origin, n)
			}
			if n > 0 && isPattern(origin+1, buf) {
				t.Fatalf("isPattern accepts origin %d's %d bytes as origin %d's", origin, n, origin+1)
			}
			for i := range buf {
				buf[i] ^= 0x40
				if isPattern(origin, buf) {
					t.Fatalf("isPattern accepts FillPattern(%d, %d) with byte %d flipped", origin, n, i)
				}
				buf[i] ^= 0x40
			}
		}
	}
}

// NormalizeV's payload check is the in-place one: a flipped byte in any
// origin's block fails the result.
func TestNormalizeVRejectsFlippedByte(t *testing.T) {
	sizes := []int64{257, 0, 70001}
	var msg Message
	for o, n := range sizes {
		msg.Append(NewPlain(o, FillPattern(o, n)).Chunks...)
	}
	if _, err := NormalizeV(msg, sizes, true); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	for _, at := range []struct{ chunk, i int }{{0, 0}, {0, 256}, {2, 255}, {2, 256}, {2, 70000}} {
		msg.Chunks[at.chunk].Payload[at.i] ^= 1
		if _, err := NormalizeV(msg, sizes, true); err == nil {
			t.Fatalf("byte %d of chunk %d flipped, result accepted", at.i, at.chunk)
		}
		msg.Chunks[at.chunk].Payload[at.i] ^= 1
	}
}
