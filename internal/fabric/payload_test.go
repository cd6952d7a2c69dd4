package fabric

import (
	"testing"
	"unsafe"
)

// backing returns the address of a buffer's backing array.
func backing(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b[:cap(b)]))) }

// TestPayloadsHeldTogetherNeverShare checks that payloads held at the
// same time never share a backing array, across size classes and
// after recycling.
func TestPayloadsHeldTogetherNeverShare(t *testing.T) {
	_, m := newTestMachine(t, 2)
	sizes := []int{1, 7, 8, 9, 64, 100, 4096, 4097, 1 << 20}
	for round := 0; round < 3; round++ {
		held := map[uintptr]int{}
		var bufs [][]byte
		for _, n := range sizes {
			for k := 0; k < 3; k++ {
				b := m.Payload(n)
				if len(b) != n {
					t.Fatalf("Payload(%d) has len %d", n, len(b))
				}
				if prev, dup := held[backing(b)]; dup {
					t.Fatalf("round %d: Payload(%d) shares its backing array with a held Payload(%d)", round, n, prev)
				}
				held[backing(b)] = n
				for i := range b {
					b[i] = byte(len(bufs))
				}
				bufs = append(bufs, b)
			}
		}
		for i, b := range bufs {
			for _, x := range b {
				if x != byte(i) {
					t.Fatalf("round %d: buffer %d was overwritten through another payload", round, i)
				}
			}
		}
		for _, b := range bufs {
			m.Recycle(b)
		}
	}
}

// TestPayloadReturnsFromOwnSizeClass checks that a recycled buffer is
// handed out again only for sizes of its own power-of-two class.
func TestPayloadReturnsFromOwnSizeClass(t *testing.T) {
	_, m := newTestMachine(t, 2)
	b := m.Payload(3000) // class 4096
	if cap(b) != 4096 {
		t.Fatalf("Payload(3000) cap = %d, want 4096", cap(b))
	}
	addr := backing(b)
	m.Recycle(b)

	if c := m.Payload(2048); backing(c) == addr || cap(c) != 2048 {
		t.Errorf("Payload(2048) reused a 4096-byte buffer (cap %d)", cap(c))
	}
	if c := m.Payload(4097); backing(c) == addr || cap(c) != 8192 {
		t.Errorf("Payload(4097) reused a 4096-byte buffer (cap %d)", cap(c))
	}
	c := m.Payload(2049)
	if backing(c) != addr || len(c) != 2049 {
		t.Errorf("Payload(2049) did not reuse the recycled 4096-byte buffer")
	}
	if d := m.Payload(4096); backing(d) == addr {
		t.Error("a held buffer was handed out twice")
	}
}

// TestPayloadEdgeCases covers n == 0 and buffers that did not come from
// Payload.
func TestPayloadEdgeCases(t *testing.T) {
	_, m := newTestMachine(t, 2)
	if b := m.Payload(0); b != nil {
		t.Errorf("Payload(0) = %v, want nil", b)
	}
	if b := m.Payload(-1); b != nil {
		t.Errorf("Payload(-1) = %v, want nil", b)
	}
	m.Recycle(nil)
	m.Recycle(m.Payload(0))
	m.Recycle([]byte{})

	// A foreign buffer whose capacity is not a power of two is dropped.
	foreign := make([]byte, 100)
	m.Recycle(foreign)
	for _, n := range []int{65, 100, 128} {
		if b := m.Payload(n); backing(b) == backing(foreign) {
			t.Errorf("Payload(%d) handed out a foreign 100-byte buffer", n)
		}
	}
	// A power-of-two buffer handed over is served at its full capacity
	// class.
	own := make([]byte, 10, 64)
	m.Recycle(own)
	if b := m.Payload(64); backing(b) != backing(own) || len(b) != 64 {
		t.Error("Payload(64) did not reuse a recycled 64-byte buffer")
	}
}

// TestPayloadRecycleNeedsNoAllocation checks the steady state: a
// payload taken and recycled per operation allocates nothing.
func TestPayloadRecycleNeedsNoAllocation(t *testing.T) {
	_, m := newTestMachine(t, 2)
	m.Recycle(m.Payload(64 << 10))
	allocs := testing.AllocsPerRun(100, func() {
		m.Recycle(m.Payload(64 << 10))
	})
	if allocs != 0 {
		t.Errorf("Payload/Recycle allocates %.1f times per op, want 0", allocs)
	}
}
