package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// A record frame, the one on-disk form of a record in WAL segments and
// snapshots alike:
//
//	[uvarint payload length][4B little-endian CRC-32C][payload]
//
// The CRC is seeded: a WAL frame's covers its record's 8-byte
// little-endian index and then the payload, a snapshot frame's the
// payload alone. The index is not stored, since a segment's name gives
// its first index and a frame's position the rest, but a frame written
// for another index still fails its check where it is read. A length is
// at least 1, at most maxFrame and written in its shortest form, so a
// zero-filled tail, a padded length and an implausible one each end the
// valid frames too. A payload up to 127 bytes takes 5 bytes of framing,
// one up to 16 383 bytes 6.
//
// Each file opens with a 4-byte magic naming the framing (segmentMagic,
// snapshotMagic), so a file of the framing data format 4 wrote is never
// read as this one, nor this one as that.

// frameMagicLen is the length of a file's framing magic.
const frameMagicLen = 4

// maxFrame caps a payload. A frame that says more is torn or corrupt,
// and a payload over it is refused before it takes an index.
const maxFrame = 64 << 20

// maxFrameHead is the longest frame head: a length up to maxFrame
// takes 4 uvarint bytes.
const maxFrameHead = 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame ends the valid frames of a stream: a torn, corrupt,
// zero-length, padded or oversize frame.
var errBadFrame = errors.New("storage: torn or corrupt frame")

// checkPayload refuses a payload no frame can hold.
func checkPayload(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrame {
		return fmt.Errorf("storage: record of %d bytes, want 1 to %d", len(payload), maxFrame)
	}
	return nil
}

// indexSeed is the CRC seed of the WAL frame of the record at index:
// the CRC-32C of its 8 little-endian bytes, taken a byte at a time from
// the table, since handing crc32.Update a slice of them allocates it.
func indexSeed(index uint64) uint32 {
	crc := ^uint32(0)
	for range 8 {
		crc = castagnoli[byte(crc)^byte(index)] ^ crc>>8
		index >>= 8
	}
	return ^crc
}

// putFrameHead writes the head of payload's frame, its CRC seeded with
// seed, into hdr and returns the head's length.
func putFrameHead(hdr *[maxFrameHead]byte, seed uint32, payload []byte) int {
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Update(seed, castagnoli, payload))
	return n + 4
}

// appendFrame appends payload's frame to dst.
func appendFrame(dst []byte, seed uint32, payload []byte) []byte {
	var hdr [maxFrameHead]byte
	n := putFrameHead(&hdr, seed, payload)
	return append(append(dst, hdr[:n]...), payload...)
}

// frameSize is the size of the frame of an n-byte payload.
func frameSize(n int) int64 { return int64(uvarintLen(uint64(n)) + 4 + n) }

// frameReader reads frames one after another from a stream.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 256<<10)}
}

// next reads the next frame, checking its CRC from seed, and returns
// its payload, valid until the next call, and the frame's size. The
// error is io.EOF when the stream ends where a frame would begin,
// errBadFrame when the frame is not a valid one, and the reader's error
// when reading fails otherwise.
func (fr *frameReader) next(seed uint32) ([]byte, int64, error) {
	var length uint64
	n := 0
	for {
		c, err := fr.r.ReadByte()
		if err == io.EOF && n > 0 {
			err = errBadFrame
		}
		if err != nil {
			return nil, 0, err
		}
		length |= uint64(c&0x7f) << (7 * n)
		n++
		if c < 0x80 {
			if c == 0 {
				return nil, 0, errBadFrame // zero length, or a padded one
			}
			break
		}
		if n == 4 {
			return nil, 0, errBadFrame // 2^28 or more: over maxFrame
		}
	}
	if length > maxFrame {
		return nil, 0, errBadFrame
	}
	// The buffer grows with the bytes that arrive, not with what a
	// possibly corrupt length claims.
	need, b := 4+int(length), fr.buf[:0]
	for len(b) < need {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(need-len(b), max(cap(b), 4<<10)))
		}
		k, err := fr.r.Read(b[len(b):min(cap(b), need)])
		b = b[:len(b)+k]
		if err == io.EOF {
			err = errBadFrame
		}
		if err != nil && len(b) < need {
			fr.buf = b
			return nil, 0, err
		}
	}
	fr.buf = b
	payload := b[4:]
	if crc32.Update(seed, castagnoli, payload) != binary.LittleEndian.Uint32(b[:4]) {
		return nil, 0, errBadFrame
	}
	return payload, int64(n) + 4 + int64(length), nil
}
