package core

import "encoding/binary"

// CanonicalKey serializes the four LFA attributes into a compact,
// deterministic byte string. Two encodings describe the same point of the
// scheduling space iff their keys are equal, which makes the key usable as a
// memoization key for schedule evaluation (see sim.Cache).
func (e *Encoding) CanonicalKey() string {
	// Varint encoding keeps typical keys well under one byte per field
	// value; the leading lengths make the concatenation prefix-free.
	b := make([]byte, 0, 2*(len(e.Order)+2*len(e.FLCs)+len(e.Tile))+8)
	b = binary.AppendUvarint(b, uint64(len(e.Order)))
	for _, id := range e.Order {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(e.FLCs)))
	for i, c := range e.FLCs {
		v := uint64(c) << 1
		if e.IsDRAM[i] {
			v |= 1
		}
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(e.Tile)))
	for _, t := range e.Tile {
		b = binary.AppendUvarint(b, uint64(t))
	}
	return string(b)
}

// CanonicalKey serializes the schedule's complete scheduling decision - the
// LFA encoding plus every DLSA attribute (DRAM Tensor Order and the
// adjustable Living Durations). Everything else on the Schedule is derived
// deterministically from these by Parse, so equal keys imply identical
// evaluation results.
func (s *Schedule) CanonicalKey() string {
	b := []byte(s.Enc.CanonicalKey())
	b = binary.AppendUvarint(b, uint64(len(s.Order)))
	return string(s.AppendDLSAKey(b))
}

// AppendDLSAKey appends the DLSA part of CanonicalKey - the part after the
// encoding key and the order length, the only part a DLSA move changes - to
// b. Stage-2 search keeps the rest in a buffer and appends this per move.
func (s *Schedule) AppendDLSAKey(b []byte) []byte {
	for _, id := range s.Order {
		b = binary.AppendUvarint(b, uint64(id))
	}
	for i := range s.Tensors {
		t := &s.Tensors[i]
		// Start is the adjustable field of loads, End of stores; the
		// other one is fixed by the parse, so one varint per tensor
		// suffices.
		if t.Kind.IsLoad() {
			b = binary.AppendUvarint(b, uint64(t.Start))
		} else {
			b = binary.AppendUvarint(b, uint64(t.End))
		}
	}
	return b
}
