package wifi

import (
	"encoding/binary"
	"hash/crc32"
)

// The 802.11 frame check sequence: CRC-32 (IEEE 802.3 polynomial) appended
// little-endian to every MPDU. A jammed frame shows up as an FCS failure at
// the receiver, which is what drives the MAC retransmissions and the
// throughput collapse the paper measures.

// AppendFCS returns data with its 4-byte FCS appended.
func AppendFCS(data []byte) []byte {
	return AppendFCSTo(make([]byte, 0, len(data)+4), data)
}

// AppendFCSTo appends data and its 4-byte FCS to dst and returns the
// extended slice; dst must not overlap data.
func AppendFCSTo(dst, data []byte) []byte {
	dst = append(dst, data...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(data))
}

// CheckFCS verifies and strips the FCS, reporting whether it matched.
func CheckFCS(frame []byte) (payload []byte, ok bool) {
	if len(frame) < 4 {
		return nil, false
	}
	data := frame[:len(frame)-4]
	want := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	return data, crc32.ChecksumIEEE(data) == want
}
