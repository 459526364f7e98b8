package opoint

import "math"

// Hasher is the 128-bit content hasher behind a table's Facts and the
// allocator's solve-input fingerprint. It absorbs one 64-bit word at a time
// into two independent lanes, each through a full-avalanche finaliser
// (MurmurHash3's fmix64 on one lane, splitmix64's on the other). A bare
// multiply only carries a flipped bit upward, so two high-bit flips in
// consecutive words could cancel; the xor-shifts carry every bit into every
// other. Both steps are bijections of the lane for a fixed word and of the
// word for a fixed lane, so changing any single absorbed word always changes
// both lanes.
type Hasher struct {
	Hi, Lo uint64
}

// NewHasher returns a hasher at its fixed starting state.
func NewHasher() Hasher {
	return Hasher{Hi: 0xcbf29ce484222325, Lo: 0x9e3779b97f4a7c15}
}

// U64 absorbs one word.
func (h *Hasher) U64(v uint64) {
	x := h.Hi ^ v
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	h.Hi = x ^ x>>33

	y := h.Lo + v
	y ^= y >> 30
	y *= 0xbf58476d1ce4e5b9
	y ^= y >> 27
	y *= 0x94d049bb133111eb
	h.Lo = y ^ y>>31
}

// F64 absorbs a float by its bit pattern.
func (h *Hasher) F64(v float64) { h.U64(math.Float64bits(v)) }

// Str absorbs a length-prefixed string, eight bytes per word.
func (h *Hasher) Str(s string) {
	h.U64(uint64(len(s)))
	for len(s) > 0 {
		n := min(len(s), 8)
		var w uint64
		for i := 0; i < n; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.U64(w)
		s = s[n:]
	}
}
