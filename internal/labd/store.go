package labd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"masterparasite/internal/chaos"
)

// Store persists run records and rendered artifacts in a directory, one
// run per file pair:
//
//	<dir>/run-000042.json  — the Record (indented JSON + checksum trailer)
//	<dir>/run-000042.out   — the rendered artifact bytes (once done)
//
// # Durability contract
//
// Every file is committed through writeAtomic: write to a
// same-directory ".tmp" path, fsync the tmp file, rename it into
// place, fsync the directory. After writeAtomic returns nil the bytes
// are crash-durable — they survive a process kill or power loss — and
// a reader never observes a partial file under the final name. A crash
// anywhere before the rename leaves only a ".tmp" (swept on recovery);
// a crash after it leaves the complete new file.
//
// # Integrity
//
// Record files end in a "sha256:<hex>" line over their body, and the
// store accepts exactly what seal writes. Load verifies the trailer: a
// file that is torn, truncated, undecodable, or without a trailer is
// quarantined — renamed to "<name>.corrupt" — and recovery continues
// with the rest, instead of aborting the daemon. Every run-numbered
// file pins its sequence number, a quarantined one included, so a
// corrupted record can never cause a run ID to be reissued.
//
// The Store does no run-level locking; the Server serialises writes
// per run (each run is owned by exactly one fleet goroutine after
// enqueue). All filesystem access goes through an injectable chaos.FS,
// which is how the chaos harness delivers short writes, failed
// renames, ENOSPC, fsync errors, and kill-points into every one of
// these paths.
type Store struct {
	dir string
	fs  chaos.FS

	mu          sync.Mutex
	maxSeq      int      // highest run sequence seen on disk, incl. quarantined files
	quarantined []string // files Load moved aside as .corrupt
}

// errStore marks every failure of the store itself: a record or
// artifact that cannot be committed, read back, or verified. The API
// answers it 500, never as a client error.
var errStore = errors.New("labd store")

// OpenStore creates the directory if needed and returns a store on it
// that commits through fsys; nil selects chaos.OS, the real filesystem
// with no faults armed.
func OpenStore(dir string, fsys chaos.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("labd: store directory must be set")
	}
	if fsys == nil {
		fsys = chaos.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %w", errStore, err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) recordPath(id string) string   { return filepath.Join(s.dir, id+".json") }
func (s *Store) artifactPath(id string) string { return filepath.Join(s.dir, id+".out") }

// writeAtomic commits data to path with the full durability chain:
// tmp write → fsync(tmp) → rename → fsync(dir). See the Store doc
// comment for the contract this buys.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := s.fs.Sync(tmp); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return err
	}
	return s.fs.SyncDir(s.dir)
}

// sealTrailerLen is len("sha256:") + 64 hex digits + newline.
const sealTrailerLen = 7 + sha256.Size*2 + 1

// appendTrailer appends the integrity trailer over body: one
// "sha256:<hex>\n" line, lower-case hex.
func appendTrailer(dst, body []byte) []byte {
	sum := sha256.Sum256(body)
	dst = append(dst, "sha256:"...)
	dst = hex.AppendEncode(dst, sum[:])
	return append(dst, '\n')
}

// seal appends the integrity trailer to body, producing the on-disk
// form of record files.
func seal(body []byte) []byte {
	out := make([]byte, 0, len(body)+sealTrailerLen)
	return appendTrailer(append(out, body...), body)
}

// unseal verifies and strips the integrity trailer. It succeeds only on
// bytes seal wrote: a missing or malformed trailer is corruption, as is
// a trailer over mismatching bytes.
func unseal(data []byte) ([]byte, error) {
	n := len(data) - sealTrailerLen
	if n < 0 || !bytes.HasPrefix(data[n:], []byte("sha256:")) || data[len(data)-1] != '\n' {
		return nil, errors.New("missing checksum trailer")
	}
	body := data[:n]
	var want [sealTrailerLen]byte
	if !bytes.Equal(appendTrailer(want[:0], body), data[n:]) {
		return nil, fmt.Errorf("checksum mismatch: body does not hash to %s", data[n+7:len(data)-1])
	}
	return body, nil
}

// PutRecord durably writes one run record.
func (s *Store) PutRecord(r *Record) error {
	if err := s.writeAtomic(s.recordPath(r.ID), seal(encodeRecord(r))); err != nil {
		return fmt.Errorf("%w: record %s: %w", errStore, r.ID, err)
	}
	return nil
}

// PutArtifact durably writes a run's rendered artifact bytes. Artifact
// files are stored raw — the bytes served must be exactly the bytes
// rendered — so their integrity check is the SHA-256 fingerprint on
// the run record, not an in-file trailer.
func (s *Store) PutArtifact(id string, rendered []byte) error {
	if err := s.writeAtomic(s.artifactPath(id), rendered); err != nil {
		return fmt.Errorf("%w: artifact %s: %w", errStore, id, err)
	}
	return nil
}

// GetArtifact reads a run's rendered artifact bytes.
func (s *Store) GetArtifact(id string) ([]byte, error) {
	b, err := s.fs.ReadFile(s.artifactPath(id))
	if err != nil {
		return nil, fmt.Errorf("%w: artifact %s: %w", errStore, id, err)
	}
	return b, nil
}

// Load reads every record in the directory, sorted by run ID (IDs are
// zero-padded, so lexicographic order is enqueue order).
//
// Recovery is tolerant of debris but strict about I/O: leftover ".tmp"
// files from a crash mid-write are removed; record files that fail the
// checksum or do not decode are quarantined to "<name>.corrupt" and
// skipped (Quarantined reports them) so one torn record cannot take
// the daemon down; but a genuine read error aborts Load — skipping a
// record that exists and cannot be read would silently lose runs.
func (s *Store) Load() ([]*Record, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errStore, err)
	}
	var recs []*Record
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// An uncommitted write: the rename never happened, so no
			// client was ever told this state existed. Sweep it.
			_ = s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		s.noteSeq(name)
		if !strings.HasPrefix(name, "run-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := s.fs.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, fmt.Errorf("%w: read %s: %w", errStore, name, err)
		}
		body, err := unseal(b)
		if err != nil {
			s.quarantine(name)
			continue
		}
		var r Record
		if err := json.Unmarshal(body, &r); err != nil || r.ID == "" {
			s.quarantine(name)
			continue
		}
		recs = append(recs, &r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}

// quarantine moves a corrupt file aside as "<name>.corrupt" so
// recovery can proceed without it and an operator can inspect it.
func (s *Store) quarantine(name string) {
	_ = s.fs.Rename(filepath.Join(s.dir, name), filepath.Join(s.dir, name+".corrupt"))
	s.mu.Lock()
	s.quarantined = append(s.quarantined, name)
	s.mu.Unlock()
}

// Quarantined returns the files Load moved aside as corrupt.
func (s *Store) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.quarantined...)
}

// noteSeq pins the sequence number embedded in any committed run file
// name — including ".corrupt" quarantines and orphaned artifacts — so
// NextSeq can never reissue an ID that was ever acknowledged, even if
// its record is now unreadable. ".tmp" names never get here: an
// uncommitted write was never acknowledged, so its sequence is free.
func (s *Store) noteSeq(name string) {
	var n int
	if _, err := fmt.Sscanf(name, "run-%d.", &n); err == nil {
		s.mu.Lock()
		if n > s.maxSeq {
			s.maxSeq = n
		}
		s.mu.Unlock()
	}
}

// NextSeq returns the next run sequence number after everything Load
// observed on disk — committed records, quarantined corpses, orphaned
// artifacts — so restarts never reuse an acknowledged ID.
func (s *Store) NextSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq + 1
}

// RunID formats a run sequence number as a stable, sortable run ID.
func RunID(seq int) string { return fmt.Sprintf("run-%06d", seq) }
