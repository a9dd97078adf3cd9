package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"encag/internal/block"
	"encag/internal/sched"
	"encag/internal/seal"
	"encag/internal/wire"
)

// floorShape is what a workload puts through each layer: the average
// transport frame size and the plaintext block sizes of its collectives.
type floorShape struct {
	frameBytes int
	blocks     []int
}

// floorBudget is the wall time each floor measurement runs for. Floors
// are measured in every run, so every layer number sits next to its
// floor from the same minutes on the same host.
const floorBudget = 250 * time.Millisecond

// measureFloors fills floor.*, wire.*_MBps and sched.handoff_ns. Only the
// direct call into the layer is on the timed path: a raw loopback
// socket, a single-goroutine Sealer, a FrameWriter into io.Discard, a
// ReadFrame from memory, one FairQueue hand-off.
func measureFloors(sh floorShape, rng *rand.Rand, rep *report) error {
	hop, n, err := loopbackHop(sh.frameBytes, floorBudget)
	if err != nil {
		return fmt.Errorf("loopback floor: %w", err)
	}
	rep.layer["floor.loopback_hop_us"] = hop
	rep.note("samples.floor_hop", "count", float64(n))
	rep.note("floor.frame_bytes", "B", float64(sh.frameBytes))

	sealMBps, openMBps, blobs, err := sealFloor(sh.blocks, rng, floorBudget)
	if err != nil {
		return fmt.Errorf("seal floor: %w", err)
	}
	rep.layer["floor.seal_MBps"] = sealMBps
	rep.layer["floor.open_MBps"] = openMBps

	enc, dec, err := wireFloor(sh.blocks, blobs, floorBudget)
	if err != nil {
		return fmt.Errorf("wire floor: %w", err)
	}
	rep.layer["wire.encode_MBps"] = enc
	rep.layer["wire.decode_MBps"] = dec

	rep.layer["sched.handoff_ns"] = fairQueueHandoff(floorBudget)
	return nil
}

// loopbackHop returns the median microseconds of writing frame bytes on
// a raw loopback TCP connection and reading back a 1-byte ack.
func loopbackHop(frame int, budget time.Duration) (float64, int, error) {
	if frame < 1 {
		frame = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		buf := make([]byte, frame)
		ack := []byte{1}
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				served <- nil // client closed: done
				return
			}
			if _, err := c.Write(ack); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-served
		return 0, 0, err
	}
	payload := make([]byte, frame)
	ack := make([]byte, 1)
	var hops []float64
	var ioErr error
	for end := time.Now().Add(budget); time.Now().Before(end) || len(hops) < 20; {
		t0 := time.Now()
		if _, ioErr = c.Write(payload); ioErr != nil {
			break
		}
		if _, ioErr = io.ReadFull(c, ack); ioErr != nil {
			break
		}
		hops = append(hops, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	c.Close()
	if err := <-served; err != nil && ioErr == nil {
		ioErr = err
	}
	if ioErr != nil {
		return 0, 0, ioErr
	}
	return median(hops), len(hops), nil
}

// sealFloor measures SealSegmented and OpenSegmented on one goroutine
// (the sealer's pool is closed, so every segment runs on the caller),
// cycling through the workload's block sizes. It returns MB/s of
// plaintext and one sealed blob per block size.
func sealFloor(sizes []int, rng *rand.Rand, budget time.Duration) (float64, float64, [][]byte, error) {
	s, err := seal.NewRandomSealer()
	if err != nil {
		return 0, 0, nil, err
	}
	serial := seal.NewPool(1)
	serial.Close()
	s.SetPool(serial)
	aad := []byte("perfbench")
	plain := make([][]byte, len(sizes))
	blobs := make([][]byte, len(sizes))
	for i, n := range sizes {
		plain[i] = make([]byte, n)
		rng.Read(plain[i])
	}
	var sealBytes, openBytes int64
	var sealTime, openTime time.Duration
	for rounds, end := 0, time.Now().Add(budget); time.Now().Before(end) || rounds < 3; rounds++ {
		for i, p := range plain {
			t0 := time.Now()
			blob, _, err := s.SealSegmented([][]byte{p}, aad)
			sealTime += time.Since(t0)
			if err != nil {
				return 0, 0, nil, err
			}
			t0 = time.Now()
			got, _, err := s.OpenSegmented(blob, aad)
			openTime += time.Since(t0)
			if err != nil {
				return 0, 0, nil, err
			}
			if !bytes.Equal(got, p) {
				return 0, 0, nil, fmt.Errorf("open returned other bytes than were sealed (%d B)", len(p))
			}
			sealBytes += int64(len(p))
			openBytes += int64(len(p))
			blobs[i] = blob
		}
	}
	return mbps(sealBytes, sealTime), mbps(openBytes, openTime), blobs, nil
}

// wireFloor measures FrameWriter.WriteMsg into io.Discard and ReadFrame
// from memory on one-ciphertext-chunk frames shaped like the workload's
// sealed blocks. It returns MB/s of frame bytes.
func wireFloor(sizes []int, blobs [][]byte, budget time.Duration) (float64, float64, error) {
	msgs := make([]block.Message, len(blobs))
	frames := make([][]byte, len(blobs))
	for i, b := range blobs {
		msgs[i] = block.Message{Chunks: []block.Chunk{{
			Enc:     true,
			Blocks:  []block.Block{{Origin: i, Len: int64(sizes[i])}},
			Payload: b,
		}}}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, 0, 1, uint64(i), msgs[i]); err != nil {
			return 0, 0, err
		}
		frames[i] = buf.Bytes()
	}
	fw := wire.NewFrameWriter()
	var encBytes, decBytes int64
	var encTime, decTime time.Duration
	var rd bytes.Reader
	for rounds, end := 0, time.Now().Add(budget); time.Now().Before(end) || rounds < 3; rounds++ {
		for i := range msgs {
			t0 := time.Now()
			err := fw.WriteMsg(io.Discard, 0, 1, uint64(rounds), msgs[i])
			encTime += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			encBytes += int64(len(frames[i]))

			rd.Reset(frames[i])
			t0 = time.Now()
			_, _, _, msg, err := wire.ReadFrame(&rd)
			decTime += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if len(msg.Chunks) != 1 || !bytes.Equal(msg.Chunks[0].Payload, blobs[i]) {
				return 0, 0, fmt.Errorf("decoded frame differs from the encoded one")
			}
			decBytes += int64(len(frames[i]))
		}
	}
	return mbps(encBytes, encTime), mbps(decBytes, decTime), nil
}

// fairQueueHandoff returns the median nanoseconds from FairQueue.Push on
// one goroutine to Pop returning on another. The producer waits for each
// item to be consumed, so every sample is one wake-up, not queueing.
func fairQueueHandoff(budget time.Duration) float64 {
	q := sched.NewFairQueue[time.Time]()
	consumed := make(chan struct{})
	var lat []float64
	go func() {
		defer close(consumed)
		for {
			pushed, ok := q.Pop()
			if !ok {
				return
			}
			lat = append(lat, float64(time.Since(pushed).Nanoseconds()))
			consumed <- struct{}{}
		}
	}()
	for n, end := 0, time.Now().Add(budget); time.Now().Before(end) || n < 20; n++ {
		q.Push(1, time.Now())
		<-consumed
	}
	q.Close()
	<-consumed // closed once the consumer has returned
	return median(lat)
}

func mbps(n int64, d time.Duration) float64 {
	return ratio(float64(n)/1e6, d.Seconds())
}
