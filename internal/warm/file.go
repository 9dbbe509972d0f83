// .m3dwarm snapshot files persist warm-state checkpoints across runs
// (-warm-dir in coresim/mcsim/m3dcli). The format mirrors the trace and
// journal layers' framing discipline:
//
//	offset  size  field
//	0       8     magic "M3DWARM1"
//	8       4     header length H (little-endian uint32)
//	12      H     JSON header {Kind, Pos, Cum, Ladder|MC identity}
//	12+H    P     gob-encoded state payload
//	12+H+P  4     CRC32 (IEEE) of the payload bytes (little-endian uint32)
//
// The JSON header carries the full snapshot identity so the loader can
// reject a file whose name collides but whose identity differs; the
// trailing checksum covers every payload byte, so a bit flip makes the
// loader reject the file (ErrCorrupt) instead of restoring garbage cache
// state into a sweep. Rejected files are quarantined (renamed aside) and
// the checkpoint is rebuilt from the trace — snapshots are pure functions
// of their identity, so nothing is lost.
//
// All file access goes through the internal/fsio seam (SetFS), so chaos
// tests inject storage faults underneath unmodified production code.
package warm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"

	"vertical3d/internal/fsio"
	"vertical3d/internal/uarch"
)

const fileMagic = "M3DWARM1"

// ErrCorrupt tags snapshot files rejected by the payload checksum (or any
// other structural damage past the magic). Callers that see it quarantine
// the file and rebuild the checkpoint from the trace.
var ErrCorrupt = errors.New("corrupt warm snapshot")

var (
	fsMu   sync.RWMutex
	warmFS fsio.FS = fsio.OS
)

// SetFS routes the snapshot file layer through an explicit filesystem seam
// (chaos tests pass an *fsio.Injector; nil restores the real filesystem).
// Package-level because the snapshot cache is process-global.
func SetFS(fs fsio.FS) {
	if fs == nil {
		fs = fsio.OS
	}
	fsMu.Lock()
	warmFS = fs
	fsMu.Unlock()
}

// getFS returns the current filesystem seam.
func getFS() fsio.FS {
	fsMu.RLock()
	defer fsMu.RUnlock()
	return warmFS
}

// Snapshot kinds stored in the file header.
const (
	kindLadder = "ladder"
	kindMC     = "mc"
)

// fileHeader is the JSON header of a snapshot file. Exactly one of Ladder
// and MC is set, matching Kind; Pos is the absolute stream position the
// state was captured at (per-core for MC snapshots) and Cum the
// design-independent observables accumulated from position zero.
type fileHeader struct {
	Kind   string
	Pos    uint64
	Cum    uarch.WarmObs
	Ladder *Identity   `json:",omitempty"`
	MC     *MCIdentity `json:",omitempty"`
}

// sanitizeName maps a profile name onto filesystem-safe runes.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// ladderFileName returns the canonical cache-directory file name for one
// ladder checkpoint: the readable prefix locates it, the FNV-64a hash of
// the full identity (geometry and sampling params included) makes names
// collision-free across sweeps sharing a profile.
func ladderFileName(id Identity, pos uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d", id, pos)
	return fmt.Sprintf("%s_s%d_t%d_p%d_%016x.m3dwarm",
		sanitizeName(id.Prof.Name), id.Seed, id.Stream, pos, h.Sum64())
}

// mcFileName returns the canonical cache-directory file name for one
// multicore warmup snapshot.
func mcFileName(id MCIdentity) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", id)
	return fmt.Sprintf("mc%d_%s_s%d_t%d_%016x.m3dwarm",
		id.Cores, sanitizeName(id.Prof.Name), id.Seed, id.StreamBase, h.Sum64())
}

// encodeSnapshot serialises header and gob payload, appending the CRC32 of
// the payload bytes so loaders can reject silent corruption.
func encodeSnapshot(w io.Writer, hdr fileHeader, payload any) error {
	bw := bufio.NewWriter(w)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("warm: encode header: %w", err)
	}
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(hb))); err != nil {
		return err
	}
	if _, err := bw.Write(hb); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	if err := gob.NewEncoder(io.MultiWriter(bw, crc)).Encode(payload); err != nil {
		return fmt.Errorf("warm: encode state: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeSnapshot deserialises a snapshot file into payload, verifying the
// checksum BEFORE gob decoding so a flipped payload bit can never place
// partially-decoded garbage into the destination. A checksum mismatch, a
// header encodeSnapshot would not have written, or bytes past the state
// return an error wrapping ErrCorrupt.
func decodeSnapshot(r io.Reader, payload any) (fileHeader, error) {
	var hdr fileHeader
	raw, err := io.ReadAll(r)
	if err != nil {
		return hdr, fmt.Errorf("warm: read snapshot: %w", err)
	}
	if len(raw) < len(fileMagic)+4+4 {
		return hdr, fmt.Errorf("warm: %w: truncated file (%d bytes)", ErrCorrupt, len(raw))
	}
	if string(raw[:len(fileMagic)]) != fileMagic {
		return hdr, fmt.Errorf("warm: %w: bad magic %q (want %q)", ErrCorrupt, raw[:len(fileMagic)], fileMagic)
	}
	raw = raw[len(fileMagic):]
	hlen := binary.LittleEndian.Uint32(raw[:4])
	raw = raw[4:]
	if hlen == 0 || hlen > 1<<20 || int(hlen) > len(raw)-4 {
		return hdr, fmt.Errorf("warm: %w: implausible header length %d", ErrCorrupt, hlen)
	}
	if err := json.Unmarshal(raw[:hlen], &hdr); err != nil {
		return hdr, fmt.Errorf("warm: %w: decode header: %v", ErrCorrupt, err)
	}
	// The header is outside the checksum: accept only the bytes
	// encodeSnapshot writes for it.
	if canon, err := json.Marshal(hdr); err != nil || !bytes.Equal(canon, raw[:hlen]) {
		return hdr, fmt.Errorf("warm: %w: non-canonical header", ErrCorrupt)
	}
	body := raw[hlen : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return hdr, fmt.Errorf("warm: %w: payload checksum %08x != %08x", ErrCorrupt, got, want)
	}
	br := bytes.NewReader(body)
	if err := gob.NewDecoder(br).Decode(payload); err != nil {
		return hdr, fmt.Errorf("warm: %w: decode state: %v", ErrCorrupt, err)
	}
	if br.Len() != 0 {
		return hdr, fmt.Errorf("warm: %w: %d bytes past the state", ErrCorrupt, br.Len())
	}
	return hdr, nil
}

// saveSnapshot writes a snapshot to path durably and atomically: temp
// file, fsync, rename, then a best-effort fsync of the parent directory so
// the rename itself survives a crash. A concurrent or crashed writer never
// leaves a torn file for a later load to trust.
func saveSnapshot(path string, hdr fileHeader, payload any) error {
	fsys := getFS()
	tmp, err := fsys.CreateTemp(filepath.Dir(path), ".m3dwarm-*")
	if err != nil {
		return err
	}
	defer func() { _ = fsys.Remove(tmp.Name()) }() // no-op after successful rename
	if err := encodeSnapshot(tmp, hdr, payload); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	_ = fsio.SyncDir(fsys, filepath.Dir(path))
	return nil
}

// loadSnapshot reads a snapshot file from path.
func loadSnapshot(path string, payload any) (fileHeader, error) {
	f, err := getFS().Open(path)
	if err != nil {
		return fileHeader{}, err
	}
	defer func() { _ = f.Close() }()
	hdr, err := decodeSnapshot(f, payload)
	if err != nil {
		return hdr, fmt.Errorf("%s: %w", path, err)
	}
	return hdr, nil
}

// fsNotExist reports whether an error means the snapshot file is simply
// absent (a cold cache, not a fault).
func fsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// errorsIsCorrupt reports whether an error carries the ErrCorrupt tag.
func errorsIsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// quarantine renames a rejected snapshot file aside (best-effort) so the
// rebuilt replacement can be saved under the canonical name without the
// damaged file ever being trusted again.
func quarantine(path string) {
	_ = getFS().Rename(path, path+".quarantine")
	counters.quarantines.Add(1)
}
