package seal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

func TestRotatingRoundTrip(t *testing.T) {
	rs, err := NewRotatingSealer(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rs.Seal([]byte("hello"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != SealedLenRotating(5) {
		t.Fatalf("blob len = %d, want %d", len(blob), SealedLenRotating(5))
	}
	pt, err := rs.Open(blob, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, []byte("hello")) {
		t.Fatal("round trip mismatch")
	}
}

func TestRotationHappensAtBudget(t *testing.T) {
	rs, err := NewRotatingSealer(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for i := 0; i < 10; i++ {
		b, err := rs.Seal([]byte{byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	// 10 seals at budget 3: epochs 0,0,0 | 1,1,1 | 2,2,2 | 3.
	if rs.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", rs.Epoch())
	}
	// Epochs 1..3 remain openable (window 2 keeps epoch >= 1).
	for i := 3; i < 10; i++ {
		if _, err := rs.Open(blobs[i], nil); err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
	}
	// Epoch 0 has been evicted.
	if _, err := rs.Open(blobs[0], nil); err == nil {
		t.Fatal("evicted epoch still opened")
	}
}

func TestRotatingTamperAndEpochForgery(t *testing.T) {
	rs, err := NewRotatingSealer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rs.Seal([]byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a ciphertext bit.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 1
	if _, err := rs.Open(bad, nil); err == nil {
		t.Fatal("tampered blob accepted")
	}
	// Forge the epoch prefix: wrong key, must fail authentication or be
	// unknown.
	forged := append([]byte(nil), blob...)
	forged[3] ^= 1
	if _, err := rs.Open(forged, nil); err == nil {
		t.Fatal("epoch-forged blob accepted")
	}
	// Too short.
	if _, err := rs.Open(blob[:4], nil); err == nil {
		t.Fatal("short blob accepted")
	}
}

func TestRotatingConcurrentUse(t *testing.T) {
	const window = 4
	rs, err := NewRotatingSealer(50, window)
	if err != nil {
		t.Fatal(err)
	}
	// A goroutine descheduled between its Seal and its Open can find its
	// key legitimately evicted by the others' rotations. Only that error
	// is tolerated, and only when the blob's epoch really has left the
	// window; any other Open failure fails the test.
	open := func(b []byte) error {
		_, err := rs.Open(b, nil)
		if err == nil || !strings.Contains(err.Error(), "no longer available") {
			return err
		}
		if epoch := binary.BigEndian.Uint32(b); epoch+window >= rs.Epoch() {
			return fmt.Errorf("epoch %d rejected while still in the window: %w", epoch, err)
		}
		return nil
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				b, err := rs.Seal([]byte("payload"), nil)
				if err != nil {
					done <- err
					return
				}
				if err := open(b); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if rs.Epoch() < 10 {
		t.Fatalf("epoch = %d after 800 seals at budget 50, want >= 10", rs.Epoch())
	}
}
