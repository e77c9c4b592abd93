package httpapi

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A dependency-free snappy block-format codec, just enough for
// Prometheus remote write: the protocol snappy-compresses every
// protobuf payload, and the module deliberately has no third-party
// imports. Decoding implements the full format (literals plus all
// three copy-element encodings, since real senders emit copies);
// encoding emits literal-only blocks — spec-valid output any snappy
// reader accepts, used by tests and by Go clients of the endpoint
// that don't want a snappy dependency either.

// errSnappyCorrupt reports an undecodable snappy block.
var errSnappyCorrupt = errors.New("httpapi: corrupt snappy data")

// maxSnappyDecodedLen caps the decoded size a payload may declare, so
// a hostile 5-byte body cannot demand a multi-gigabyte allocation.
const maxSnappyDecodedLen = 64 << 20

// snappyDecode decompresses a snappy block-format payload. The
// declared length is only a claim: the output buffer starts no larger
// than the input and grows as elements produce bytes, so a short body
// that declares megabytes cannot make the decoder allocate them.
func snappyDecode(src []byte) ([]byte, error) {
	declared, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, errSnappyCorrupt
	}
	if declared > maxSnappyDecodedLen {
		return nil, fmt.Errorf("httpapi: snappy payload declares %d decoded bytes (limit %d)", declared, maxSnappyDecodedLen)
	}
	src = src[n:]
	dst := make([]byte, 0, min(declared, uint64(len(src))))
	for len(src) > 0 {
		tag := src[0]
		src = src[1:]
		switch tag & 0x03 {
		case 0x00: // literal
			length := uint64(tag >> 2)
			if length >= 60 {
				extra := int(length - 59) // 1..4 length bytes
				if len(src) < extra {
					return nil, errSnappyCorrupt
				}
				length = 0
				for i := extra - 1; i >= 0; i-- {
					length = length<<8 | uint64(src[i])
				}
				src = src[extra:]
			}
			length++
			if uint64(len(src)) < length || uint64(len(dst))+length > declared {
				return nil, errSnappyCorrupt
			}
			dst = append(dst, src[:length]...)
			src = src[length:]
		case 0x01: // copy, 1-byte offset
			if len(src) < 1 {
				return nil, errSnappyCorrupt
			}
			length := uint64(tag>>2&0x07) + 4
			offset := uint64(tag>>5)<<8 | uint64(src[0])
			src = src[1:]
			var err error
			if dst, err = snappyCopy(dst, offset, length, declared); err != nil {
				return nil, err
			}
		case 0x02: // copy, 2-byte offset
			if len(src) < 2 {
				return nil, errSnappyCorrupt
			}
			length := uint64(tag>>2) + 1
			offset := uint64(binary.LittleEndian.Uint16(src))
			src = src[2:]
			var err error
			if dst, err = snappyCopy(dst, offset, length, declared); err != nil {
				return nil, err
			}
		default: // 0x03: copy, 4-byte offset
			if len(src) < 4 {
				return nil, errSnappyCorrupt
			}
			length := uint64(tag>>2) + 1
			offset := uint64(binary.LittleEndian.Uint32(src))
			src = src[4:]
			var err error
			if dst, err = snappyCopy(dst, offset, length, declared); err != nil {
				return nil, err
			}
		}
	}
	if uint64(len(dst)) != declared {
		return nil, errSnappyCorrupt
	}
	return dst, nil
}

// snappyCopy appends length bytes starting offset bytes back from the
// end of dst. The ranges may overlap — that is how snappy encodes
// runs — so the copy must proceed byte-wise from the start.
func snappyCopy(dst []byte, offset, length, declared uint64) ([]byte, error) {
	if offset == 0 || offset > uint64(len(dst)) || uint64(len(dst))+length > declared {
		return nil, errSnappyCorrupt
	}
	pos := uint64(len(dst)) - offset
	for i := uint64(0); i < length; i++ {
		dst = append(dst, dst[pos+i])
	}
	return dst, nil
}

// snappyEncode compresses src as a literal-only snappy block: a valid
// encoding of any input (the format does not require copy elements),
// traded for zero compression.
func snappyEncode(src []byte) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(src)))
	for len(src) > 0 {
		chunk := src
		if len(chunk) > 1<<24 {
			chunk = chunk[:1<<24]
		}
		n := uint32(len(chunk) - 1)
		switch {
		case n < 60:
			dst = append(dst, byte(n)<<2)
		case n < 1<<8:
			dst = append(dst, 60<<2, byte(n))
		case n < 1<<16:
			dst = append(dst, 61<<2, byte(n), byte(n>>8))
		default:
			dst = append(dst, 62<<2, byte(n), byte(n>>8), byte(n>>16))
		}
		dst = append(dst, chunk...)
		src = src[len(chunk):]
	}
	return dst
}
