package core

import "encoding/binary"

// AppendKeyInt appends v's encoding in a canonical key, an unsigned varint,
// to b. It is the keys' one integer encoder: the from-scratch keys below
// and the in-place edits of a live stage-2 key (sim.Incremental.Key) both
// encode through it. Most key values (layer IDs of small graphs, cut
// positions, tiling numbers) fit the varint's one-byte form, which it
// appends directly.
func AppendKeyInt(b []byte, v int) []byte {
	if uint(v) < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, uint64(v))
}

// CanonicalKey serializes the four LFA attributes into a compact,
// deterministic byte string. Two encodings describe the same point of the
// scheduling space iff their keys are equal, which makes the key usable as a
// memoization key for schedule evaluation (see sim.Cache).
func (e *Encoding) CanonicalKey() string {
	return string(e.AppendKey(make([]byte, 0, e.keyCap())))
}

// keyCap is a capacity that typically holds the encoding's key.
func (e *Encoding) keyCap() int { return 2*(len(e.Order)+2*len(e.FLCs)+len(e.Tile)) + 8 }

// AppendKey appends CanonicalKey to b, for callers that build a larger key
// around it in a reused buffer (stage 1's cache key).
func (e *Encoding) AppendKey(b []byte) []byte {
	// Varint encoding keeps typical keys well under one byte per field
	// value; the leading lengths make the concatenation prefix-free.
	b = AppendKeyInt(b, len(e.Order))
	for _, id := range e.Order {
		b = AppendKeyInt(b, int(id))
	}
	b = AppendKeyInt(b, len(e.FLCs))
	for i, c := range e.FLCs {
		v := c << 1
		if e.IsDRAM[i] {
			v |= 1
		}
		b = AppendKeyInt(b, v)
	}
	b = AppendKeyInt(b, len(e.Tile))
	for _, t := range e.Tile {
		b = AppendKeyInt(b, t)
	}
	return b
}

// CanonicalKey serializes the schedule's complete scheduling decision - the
// LFA encoding plus every DLSA attribute (DRAM Tensor Order and the
// adjustable Living Durations). Everything else on the Schedule is derived
// deterministically from these by Parse, so equal keys imply identical
// evaluation results.
func (s *Schedule) CanonicalKey() string {
	b := make([]byte, 0, s.Enc.keyCap()+4*len(s.Order)+8)
	return string(s.AppendCanonicalKey(b, nil, nil))
}

// AppendCanonicalKey appends CanonicalKey to b. With non-nil orderAt and
// durAt (one entry per tensor each) it records where in b each order
// position's tensor ID and each tensor's Living Duration are encoded, so a
// caller can edit the key in place after a DLSA move.
func (s *Schedule) AppendCanonicalKey(b []byte, orderAt, durAt []int) []byte {
	b = s.Enc.AppendKey(b)
	b = AppendKeyInt(b, len(s.Order))
	for p, id := range s.Order {
		if orderAt != nil {
			orderAt[p] = len(b)
		}
		b = AppendKeyInt(b, id)
	}
	for i := range s.Tensors {
		if durAt != nil {
			durAt[i] = len(b)
		}
		b = AppendKeyInt(b, s.Tensors[i].Living())
	}
	return b
}
