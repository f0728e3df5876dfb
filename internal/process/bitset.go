package process

import "math/bits"

// bitset is a fixed-capacity bit membership set over vertex ids. The
// native cobra/bips engines keep their frontier and reached sets in
// bitsets instead of the 4-byte-per-vertex stamp arrays the reference
// implementations use: at one bit per vertex the whole set stays resident
// in L1/L2 (2 KB at n = 2^14, 1.25 MB at n = 10^7), so the random-order
// membership probes of the inner loops stop paying a cache miss per push.
//
// Clearing is the caller's business, and there are two idioms: zero (O(n)
// word memset, for per-Reset lifetimes) and clearing just the members you
// inserted via clearBit (O(members), for per-round frontiers whose member
// list the engine holds anyway).
type bitset []uint64

func newBitset(n int) bitset {
	return make(bitset, (n+63)>>6)
}

// zero clears every bit.
func (b bitset) zero() {
	clear(b)
}

// test reports whether bit v is set.
func (b bitset) test(v int32) bool {
	return b[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0
}

// bit returns bit v as 0 or 1.
func (b bitset) bit(v int32) uint64 {
	return b[uint32(v)>>6] >> (uint32(v) & 63) & 1
}

// testAndSet sets bit v and reports whether it was previously clear.
func (b bitset) testAndSet(v int32) bool {
	w := uint32(v) >> 6
	m := uint64(1) << (uint32(v) & 63)
	old := b[w]
	b[w] = old | m
	return old&m == 0
}

// set sets bit v.
func (b bitset) set(v int32) {
	b[uint32(v)>>6] |= 1 << (uint32(v) & 63)
}

// clearBit clears bit v.
func (b bitset) clearBit(v int32) {
	b[uint32(v)>>6] &^= 1 << (uint32(v) & 63)
}

// clearMembers clears the bits named by members, switching to a whole-set
// memclr when the member list outnumbers the words: clearing
// member-by-member is O(|members|) random read-modify-writes, while clear
// is a straight-line memset of len(b) words — for dense rounds the memset
// wins by orders of magnitude.
func (b bitset) clearMembers(members []int32) {
	if len(members) >= len(b) {
		clear(b)
		return
	}
	for _, v := range members {
		b.clearBit(v)
	}
}

// appendBits appends the ids of all set bits in [0, n) to dst in
// ascending order.
func appendBits(dst []int32, b bitset, n int) []int32 {
	for w, word := range b {
		base := int32(w << 6)
		for word != 0 {
			v := base + int32(bits.TrailingZeros64(word))
			if int(v) >= n {
				return dst
			}
			dst = append(dst, v)
			word &= word - 1
		}
	}
	return dst
}
