package replay

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
)

// The log file format: a 5-byte header (magic + version), then one
// length-prefixed record per event. Record bytes after the header are
// exactly the bytes the streaming fingerprint hashes, so the fingerprint
// of a log file can be recomputed from the file alone.
var logMagic = [4]byte{'M', 'P', 'R', 'L'}

// LogVersion is bumped when the canonical event encoding changes.
const LogVersion = 1

// ErrBadLog reports a log that is not a replay log or uses an
// incompatible version.
var ErrBadLog = errors.New("replay: not a replay log (bad magic or version)")

// maxRecord guards log readers against corrupt length prefixes.
const maxRecord = 16 << 20

// writeHeader emits the log magic and version.
func writeHeader(w io.Writer) error {
	_, err := w.Write([]byte{logMagic[0], logMagic[1], logMagic[2], logMagic[3], LogVersion})
	return err
}

// ReadLog decodes every event of a recorded log, verifying the header
// and each record's framing.
func ReadLog(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadLog, err)
	}
	if [4]byte(hdr[:4]) != logMagic || hdr[4] != LogVersion {
		return nil, ErrBadLog
	}
	var events []Event
	var lenBuf [4]byte
	// The record buffer grows with the bytes actually read, not with what
	// a length prefix claims: a truncated log cannot buy maxRecord bytes.
	var body bytes.Buffer
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if err == io.EOF {
				return events, nil
			}
			return nil, fmt.Errorf("replay: truncated record length after event %d: %v", len(events), err)
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxRecord {
			return nil, fmt.Errorf("replay: record %d claims %d bytes (corrupt log?)", len(events), n)
		}
		body.Reset()
		if read, err := io.CopyN(&body, br, int64(n)); err != nil {
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF // io.ReadFull's report of a short read
			}
			return nil, fmt.Errorf("replay: truncated record %d: %v", len(events), err)
		}
		ev, used, err := decodeEvent(body.Bytes())
		if err != nil {
			return nil, fmt.Errorf("replay: record %d: %w", len(events), err)
		}
		if used != int(n) {
			return nil, fmt.Errorf("replay: record %d: %d trailing bytes", len(events), int(n)-used)
		}
		events = append(events, ev)
	}
}

// ReadLogFile is ReadLog over a file path.
func ReadLogFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	events, err := ReadLog(f)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return events, nil
}

// FingerprintEvents computes the divergence fingerprint of an event
// sequence: the hex SHA-256 of the canonical length-prefixed record
// stream. A Recorder's streaming Fingerprint over the same events
// produces the same value, as does hashing a log file's bytes after the
// header.
func FingerprintEvents(events []Event) string {
	h := sha256.New()
	var scratch []byte
	for i := range events {
		scratch = events[i].appendRecord(scratch[:0])
		h.Write(scratch)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Filter returns the events whose kind is in kinds, preserving order.
func Filter(events []Event, kinds ...Kind) []Event {
	keep := func(k Kind) bool {
		for _, want := range kinds {
			if k == want {
				return true
			}
		}
		return false
	}
	n := 0
	for i := range events {
		if keep(events[i].Kind) {
			n++
		}
	}
	out := make([]Event, 0, n)
	for _, e := range events {
		if keep(e.Kind) {
			out = append(out, e)
		}
	}
	return out
}
