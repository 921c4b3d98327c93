package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mpsnap/internal/rt"
)

// Framing errors. Transports treat any of them as a fatal condition for
// the connection that produced the bytes (close it, surface the error);
// the chaos harness counts them as corrupt frames.
var (
	// ErrFrameTooLarge reports a frame whose payload exceeds the cap —
	// on decode, before any allocation is attempted.
	ErrFrameTooLarge = errors.New("wire: frame exceeds max frame size")
	// ErrBadVersion reports a frame with an unknown version byte.
	ErrBadVersion = errors.New("wire: unknown frame version")
	// ErrShortFrame reports a frame truncated below its declared length.
	ErrShortFrame = errors.New("wire: truncated frame")
)

// maxOrDefault resolves the configurable cap.
func maxOrDefault(max int) int {
	if max <= 0 {
		return DefaultMaxFrame
	}
	return max
}

// AppendFrame appends a frame (header + payload) to dst and returns the
// extended slice. The cap is enforced on the encode side too: a payload
// over max is refused here, not discovered by the peer.
func AppendFrame(dst, payload []byte, max int) ([]byte, error) {
	max = maxOrDefault(max)
	if len(payload) > max {
		return dst, fmt.Errorf("%w: %d > %d bytes (encode)", ErrFrameTooLarge, len(payload), max)
	}
	dst = append(dst, Version)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// ReadFrame reads one frame from r and returns its payload. buf, if large
// enough, is reused for the payload (steady-state framed reads allocate
// nothing); pass nil to always allocate. io.EOF is returned untouched
// when the stream ends cleanly at a frame boundary, so callers can
// distinguish a closed peer from a corrupt one.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	max = maxOrDefault(max)
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // io.EOF: clean close before a frame
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, hdr[0], Version)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("%w: header cut short: %w", ErrShortFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: %d > %d bytes (decode)", ErrFrameTooLarge, n, max)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: payload cut short: %w", ErrShortFrame, err)
	}
	return buf, nil
}

// ParseFrame parses one frame from the front of b, returning its payload
// (aliasing b) and the bytes after the frame. The framing rules live in
// CompleteFrame; this only names the rule a rejected frame broke.
func ParseFrame(b []byte, max int) (payload, rest []byte, err error) {
	if p, ok := CompleteFrame(b, max); ok {
		return p, b[HeaderLen+len(p):], nil
	}
	switch {
	case len(b) < HeaderLen:
		return nil, nil, fmt.Errorf("%w: %d header bytes of %d", ErrShortFrame, len(b), HeaderLen)
	case b[0] != Version:
		return nil, nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, b[0], Version)
	}
	n, max := binary.BigEndian.Uint32(b[1:]), maxOrDefault(max)
	if n > uint32(max) {
		return nil, nil, fmt.Errorf("%w: %d > %d bytes (decode)", ErrFrameTooLarge, n, max)
	}
	return nil, nil, fmt.Errorf("%w: %d payload bytes of %d", ErrShortFrame, len(b)-HeaderLen, n)
}

// CompleteFrame returns the payload of the frame at the front of b when b
// holds all of it (aliasing b). It reports false, without allocating, when
// the frame is still partial or its header is malformed: a reader then
// falls back to ReadFrame, which waits for the missing bytes or names the
// error.
func CompleteFrame(b []byte, max int) (payload []byte, ok bool) {
	if len(b) < HeaderLen || b[0] != Version {
		return nil, false
	}
	n := binary.BigEndian.Uint32(b[1:])
	if n > uint32(maxOrDefault(max)) || uint64(len(b)-HeaderLen) < uint64(n) {
		return nil, false
	}
	return b[HeaderLen : HeaderLen+int(n)], true
}

// MarshalFrame encodes msg as one complete frame (the unit the chaos
// harness corrupts and a replay log would store).
func MarshalFrame(msg rt.Message, max int) ([]byte, error) {
	var b Buffer
	if err := AppendMessage(&b, msg); err != nil {
		return nil, err
	}
	return AppendFrame(nil, b.Bytes(), max)
}

// UnmarshalFrame parses one complete frame and decodes its message,
// rejecting trailing bytes after the frame.
func UnmarshalFrame(b []byte, max int) (rt.Message, error) {
	payload, rest, err := ParseFrame(b, max)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d after frame", ErrTrailingBytes, len(rest))
	}
	return Unmarshal(payload)
}
