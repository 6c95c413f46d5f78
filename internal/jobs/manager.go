// Package jobs is the durable-job substrate behind long Monte-Carlo
// and sweep runs: a Checkpointable contract for engines whose progress
// can be snapshotted mid-run, a Manager that persists those snapshots
// atomically (write-temp → fsync → rename, versioned header, CRC-32
// payload check, so a torn write is detected instead of loaded), a
// replayable EventLog that feeds both the CLI progress printer and the
// server's SSE streams, and a Registry that owns the lifecycle of
// asynchronous jobs — bounded capacity, TTL eviction of finished jobs,
// periodic checkpointing, and recovery of unfinished jobs after a
// restart.
package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Checkpointable is work whose completed portion can be captured and
// reinstalled. Snapshot must be safe to call concurrently with the run
// it observes; Restore is called before the run (re)starts. The engine
// contract (fixed slot placement, per-slot seed derivation) makes a
// restored run bit-identical to an uninterrupted one.
type Checkpointable interface {
	// Snapshot returns a self-contained encoding of the completed work.
	Snapshot() ([]byte, error)
	// Restore reinstalls a snapshot previously produced by Snapshot on
	// an equivalently-configured instance. Implementations reject
	// snapshots taken under a different spec.
	Restore(snapshot []byte) error
}

// Snapshot-file format: an 8-byte magic whose last byte is the format
// version, the big-endian payload length, the CRC-32 (IEEE) of the
// payload, then the payload. Any truncation fails the length check and
// any bit rot fails the CRC, so Load reports ErrCorrupt instead of
// handing garbage to Restore.
var snapshotMagic = [8]byte{'P', 'I', 'X', 'S', 'N', 'A', 'P', 0x01}

const snapshotHeaderLen = 8 + 8 + 4

// Sentinel errors of the snapshot store.
var (
	// ErrNotFound reports that no snapshot exists under the name.
	ErrNotFound = errors.New("jobs: snapshot not found")
	// ErrCorrupt reports a snapshot that failed the header, length or
	// checksum validation — typically a torn or truncated write.
	ErrCorrupt = errors.New("jobs: corrupt snapshot")
)

// Manager persists snapshots in one directory, one file per name.
// Saves are atomic: the bytes land in a temp file which is fsynced and
// then renamed over the target, so a crash mid-save leaves the previous
// snapshot intact. A Manager is safe for concurrent use.
type Manager struct {
	dir string
}

// NewManager returns a manager rooted at dir, creating it if needed.
func NewManager(dir string) (*Manager, error) {
	if dir == "" {
		return nil, errors.New("jobs: manager needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create snapshot dir: %w", err)
	}
	return &Manager{dir: dir}, nil
}

// path validates a snapshot name (a bare file name, no separators) and
// returns its absolute location.
func (m *Manager) path(name string) (string, error) {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("jobs: bad snapshot name %q", name)
	}
	return filepath.Join(m.dir, name), nil
}

// Save snapshots c and persists it under name atomically.
func (m *Manager) Save(name string, c Checkpointable) error {
	payload, err := c.Snapshot()
	if err != nil {
		return fmt.Errorf("jobs: snapshot %s: %w", name, err)
	}
	return m.SaveBytes(name, payload)
}

// SaveBytes persists an already-encoded payload under name atomically.
func (m *Manager) SaveBytes(name string, payload []byte) error {
	target, err := m.path(name)
	if err != nil {
		return err
	}
	buf := make([]byte, snapshotHeaderLen, snapshotHeaderLen+len(payload))
	copy(buf, snapshotMagic[:])
	binary.BigEndian.PutUint64(buf[8:], uint64(len(payload)))
	binary.BigEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)

	f, err := os.CreateTemp(m.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: save %s: %w", name, err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: save %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: save %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: save %s: %w", name, err)
	}
	if err := os.Rename(tmp, target); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: save %s: %w", name, err)
	}
	// Durability of the rename itself: sync the directory (best effort —
	// not every platform supports fsync on directories).
	if d, err := os.Open(m.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and validates the snapshot payload saved under name.
// Missing files return ErrNotFound; header, length or checksum
// mismatches return errors wrapping ErrCorrupt.
func (m *Manager) Load(name string) ([]byte, error) {
	target, err := m.path(name)
	if err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(target)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, fmt.Errorf("jobs: load %s: %w", name, err)
	}
	if len(buf) < snapshotHeaderLen {
		return nil, fmt.Errorf("%w: %s: %d bytes is shorter than the %d-byte header",
			ErrCorrupt, name, len(buf), snapshotHeaderLen)
	}
	if [8]byte(buf[:8]) != snapshotMagic {
		if [7]byte(buf[:7]) == [7]byte(snapshotMagic[:7]) {
			return nil, fmt.Errorf("%w: %s: unsupported snapshot version %d (this build reads version %d)",
				ErrCorrupt, name, buf[7], snapshotMagic[7])
		}
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, name)
	}
	want := binary.BigEndian.Uint64(buf[8:])
	payload := buf[snapshotHeaderLen:]
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("%w: %s: payload is %d bytes, header says %d (torn write)",
			ErrCorrupt, name, len(payload), want)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(buf[16:]) {
		return nil, fmt.Errorf("%w: %s: payload checksum mismatch", ErrCorrupt, name)
	}
	return payload, nil
}

// LoadInto loads the snapshot under name and restores it into c.
func (m *Manager) LoadInto(name string, c Checkpointable) error {
	payload, err := m.Load(name)
	if err != nil {
		return err
	}
	if err := c.Restore(payload); err != nil {
		return fmt.Errorf("jobs: restore %s: %w", name, err)
	}
	return nil
}

// Remove deletes the snapshot under name; a missing file is not an
// error (the job may simply never have checkpointed).
func (m *Manager) Remove(name string) error {
	target, err := m.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(target); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobs: remove %s: %w", name, err)
	}
	return nil
}

// List returns the sorted snapshot names carrying the given suffix
// (temp files from in-progress saves are excluded).
func (m *Manager) List(suffix string) ([]string, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: list snapshots: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.Contains(name, ".tmp-") {
			continue
		}
		if suffix == "" || strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
