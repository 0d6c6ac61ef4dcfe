package replica

import (
	"encoding/binary"
	"fmt"
	"math"

	"mstadvice/internal/bitstring"
)

// Wire protocol (DESIGN.md §2.10): every frame on a connection is one
// store.AppendRecord/ReadRecord record — varint length, payload, CRC32 —
// so a connection a fault (or the chaos proxy) truncates or corrupts
// mid-frame fails loudly at the codec instead of desynchronizing the
// stream. Request payloads start with an opcode byte:
//
//	opAdvice  id, node            → ok: epoch, bit length, packed bits
//	opTier    id, level           → ok: level, epoch, flat v2 snapshot blob
//	opInfo    id                  → ok: epoch, n, m, tier-only flag
//	opTail    after               → unbounded stream of epoch records
//	                                (same payload layout as the log)
//
// Reply payloads start with a status byte: rOK then the op-specific
// fields, or rErr then an error code and message. Strings are varint
// length + bytes; integers are unsigned LEB128 varints; advice bits ship
// bit-packed LSB-first, the layout of the store codec's advice section.

const (
	opAdvice = byte(1)
	opTier   = byte(2)
	opInfo   = byte(3)
	opTail   = byte(4)
)

const (
	rOK  = byte(0)
	rErr = byte(1)
)

// Wire error codes. The client's failover policy keys off them:
// not-found and degraded answers may be endpoint-local (a lagging or
// memory-pressured replica), so other endpoints are tried; bad requests
// are permanent and returned immediately.
const (
	codeNotFound = 1 // unknown graph or tier on this endpoint
	codeDegraded = 2 // endpoint serves only coarse tiers (memory pressure)
	codeBad      = 3 // malformed or out-of-range request
)

// maxWireString bounds string fields in parsed frames.
const maxWireString = 1 << 10

// cursor is a bounds-checked reader over one frame payload.
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) uvarint(what string) (uint64, error) {
	v, k := binary.Uvarint(c.b[c.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("replica: truncated %s at offset %d", what, c.pos)
	}
	c.pos += k
	return v, nil
}

// index reads a varint that must fit an int: a node, level or log index
// past math.MaxInt would wrap negative on conversion.
func (c *cursor) index(what string) (int, error) {
	v, err := c.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt {
		return 0, fmt.Errorf("replica: %s %d out of range", what, v)
	}
	return int(v), nil
}

func (c *cursor) bytes(n int, what string) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, fmt.Errorf("replica: truncated %s at offset %d", what, c.pos)
	}
	out := c.b[c.pos : c.pos+n]
	c.pos += n
	return out, nil
}

func (c *cursor) str(what string) (string, error) {
	l, err := c.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if l > maxWireString {
		return "", fmt.Errorf("replica: %s of %d bytes exceeds the %d limit", what, l, maxWireString)
	}
	b, err := c.bytes(int(l), what)
	return string(b), err
}

func (c *cursor) rest() []byte { return c.b[c.pos:] }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// packBits serializes a bit string as ⌈len/8⌉ bytes, LSB-first within
// each byte — the store codec's advice payload layout for one string.
func packBits(s *bitstring.BitString) []byte {
	bits := s.Len()
	out := make([]byte, (bits+7)/8)
	words := s.Words()
	for i := range out {
		bit := 8 * i
		w := words[bit/64]
		shift := uint(bit) % 64
		b := byte(w >> shift)
		if shift > 56 && bit/64+1 < len(words) {
			b |= byte(words[bit/64+1] << (64 - shift))
		}
		out[i] = b
	}
	if tail := uint(bits) % 8; tail != 0 {
		out[len(out)-1] &= 1<<tail - 1
	}
	return out
}

// unpackBits is packBits' inverse, strict about the encoding: the byte
// count must be exact and padding bits clear, so a corrupted frame that
// slipped past the CRC still cannot decode two ways.
func unpackBits(data []byte, bits int) (*bitstring.BitString, error) {
	if need := (bits + 7) / 8; bits < 0 || len(data) != need {
		return nil, fmt.Errorf("replica: %d advice bytes for %d bits", len(data), bits)
	}
	if tail := uint(bits) % 8; tail != 0 && data[len(data)-1]>>tail != 0 {
		return nil, fmt.Errorf("replica: set padding bits after bit %d", bits)
	}
	words := make([]uint64, (bits+63)/64)
	for i, b := range data {
		bit := 8 * i
		if bit >= bits {
			break
		}
		words[bit/64] |= uint64(b) << (uint(bit) % 64)
		if shift := uint(bit) % 64; shift > 56 && bit/64+1 < len(words) {
			words[bit/64+1] |= uint64(b) >> (64 - shift)
		}
	}
	s := bitstring.New(bits)
	s.LoadWords(words, bits)
	return s, nil
}
