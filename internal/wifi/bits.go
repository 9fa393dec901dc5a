package wifi

// Bit-order helpers. 802.11 serializes each octet least-significant bit
// first (§17.3.5.3).

// bytesToBitsInto appends the LSB-first bit expansion of b to dst.
func bytesToBitsInto(dst []uint8, b []byte) []uint8 {
	for _, v := range b {
		dst = append(dst, v&1, (v>>1)&1, (v>>2)&1, (v>>3)&1,
			(v>>4)&1, (v>>5)&1, (v>>6)&1, (v>>7)&1)
	}
	return dst
}

// bitsToBytesInto packs bits (LSB first) into dst; len(dst) must be
// len(bits)/8.
func bitsToBytesInto(dst []byte, bits []uint8) {
	for i := range dst {
		var v byte
		for j := 0; j < 8; j++ {
			v |= byte(bits[i*8+j]&1) << j
		}
		dst[i] = v
	}
}
