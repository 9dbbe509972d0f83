// .m3dwarm snapshot files persist warm-state checkpoints across runs
// (-warm-dir in coresim/mcsim/m3dcli). The format mirrors the trace and
// journal layers' framing discipline:
//
//	offset  size  field
//	0       8     magic "M3DWARM2"
//	8       4     header length H (little-endian uint32)
//	12      H     JSON header {Kind, Pos, Cum, Ladder|MC identity}
//	12+H    P     gob-encoded state payload
//	12+H+P  4     CRC32 (IEEE) of bytes 8..12+H+P (little-endian uint32)
//
// The JSON header carries the full snapshot identity so the loader can
// reject a file whose name collides but whose identity differs; the
// trailing checksum covers the header length, the header and every payload
// byte, so a bit flip anywhere past the magic — a digit of a Cum counter
// included — makes the loader reject the file (ErrCorrupt) instead of
// restoring garbage into a sweep. Rejected files are quarantined (renamed
// aside) and the checkpoint is rebuilt from the trace — snapshots are pure
// functions of their identity, so nothing is lost. Version 1 files, whose
// checksum left the header out, fail the magic and are rebuilt the same
// way.
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

	"vertical3d/internal/fsio"
	"vertical3d/internal/uarch"
)

const fileMagic = "M3DWARM2"

// ErrCorrupt tags snapshot files rejected by the checksum (or any
// other structural damage past the magic). Callers that see it quarantine
// the file and rebuild the checkpoint from the trace.
var ErrCorrupt = errors.New("corrupt warm snapshot")

// seam is the filesystem the snapshot file layer routes through.
var seam fsio.Seam

// SetFS routes the snapshot file layer through an explicit filesystem seam
// (chaos tests pass an *fsio.Injector; nil restores the real filesystem).
// Package-level because the snapshot cache is process-global.
func SetFS(fs fsio.FS) { seam.Set(fs) }

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

// ladderFileName returns the canonical cache-directory file name for one
// ladder checkpoint: the readable prefix locates it, the FNV-64a hash of
// the full identity (geometry and sampling params included) makes names
// collision-free across sweeps sharing a profile.
func ladderFileName(id Identity, pos uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d", id, pos)
	return fmt.Sprintf("%s_s%d_t%d_p%d_%016x.m3dwarm",
		fsio.SafeName(id.Prof.Name), id.Seed, id.Stream, pos, h.Sum64())
}

// mcFileName returns the canonical cache-directory file name for one
// multicore warmup snapshot.
func mcFileName(id MCIdentity) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", id)
	return fmt.Sprintf("mc%d_%s_s%d_t%d_%016x.m3dwarm",
		id.Cores, fsio.SafeName(id.Prof.Name), id.Seed, id.StreamBase, h.Sum64())
}

// encodeSnapshot serialises header and gob payload, appending the CRC32 of
// everything past the magic so loaders can reject silent corruption.
func encodeSnapshot(w io.Writer, hdr fileHeader, payload any) error {
	bw := bufio.NewWriter(w)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("warm: encode header: %w", err)
	}
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	sum := io.MultiWriter(bw, crc)
	if err := binary.Write(sum, binary.LittleEndian, uint32(len(hb))); err != nil {
		return err
	}
	if _, err := sum.Write(hb); err != nil {
		return err
	}
	if err := gob.NewEncoder(sum).Encode(payload); err != nil {
		return fmt.Errorf("warm: encode state: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeSnapshot deserialises a snapshot file into payload, verifying the
// checksum BEFORE decoding the header or the gob state, so a flipped bit
// can never place trusted garbage into the header or the destination. A
// checksum mismatch, a header encodeSnapshot would not have written, or
// bytes past the state return an error wrapping ErrCorrupt.
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
	raw, tail := raw[len(fileMagic):len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(raw), binary.LittleEndian.Uint32(tail); got != want {
		return hdr, fmt.Errorf("warm: %w: checksum %08x != %08x", ErrCorrupt, got, want)
	}
	hlen := binary.LittleEndian.Uint32(raw[:4])
	raw = raw[4:]
	if hlen == 0 || hlen > 1<<20 || int(hlen) > len(raw) {
		return hdr, fmt.Errorf("warm: %w: implausible header length %d", ErrCorrupt, hlen)
	}
	if err := json.Unmarshal(raw[:hlen], &hdr); err != nil {
		return hdr, fmt.Errorf("warm: %w: decode header: %v", ErrCorrupt, err)
	}
	// Accept only the bytes encodeSnapshot writes for the header, so an
	// accepted file re-encodes to itself.
	if canon, err := json.Marshal(hdr); err != nil || !bytes.Equal(canon, raw[:hlen]) {
		return hdr, fmt.Errorf("warm: %w: non-canonical header", ErrCorrupt)
	}
	br := bytes.NewReader(raw[hlen:])
	if err := gob.NewDecoder(br).Decode(payload); err != nil {
		return hdr, fmt.Errorf("warm: %w: decode state: %v", ErrCorrupt, err)
	}
	if br.Len() != 0 {
		return hdr, fmt.Errorf("warm: %w: %d bytes past the state", ErrCorrupt, br.Len())
	}
	return hdr, nil
}

// saveFile persists a snapshot as file name in the cache directory,
// atomically (fsio.Publish). It is best-effort: a failed save degrades to
// rebuild-next-run, counted for the Health block.
func saveFile(name string, hdr fileHeader, payload any) {
	dir := CacheDir()
	if dir == "" {
		return
	}
	err := fsio.Publish(seam.Get(), filepath.Join(dir, name), ".m3dwarm-*", func(w io.Writer) error {
		return encodeSnapshot(w, hdr, payload)
	})
	if err != nil {
		counters.saveErrors.Add(1)
	}
}

// loadFile reads snapshot file name from the cache directory into payload
// and reports whether match accepts its header. A corrupt file, or a
// well-formed one match rejects (a foreign identity under this canonical
// name), is quarantined — renamed aside so the rebuilt replacement can
// take its name without the damaged file ever being trusted again. An
// absent file or a disabled disk layer is silent; every other failure is
// counted.
func loadFile(name string, payload any, match func(fileHeader) bool) (fileHeader, bool) {
	dir := CacheDir()
	if dir == "" {
		return fileHeader{}, false
	}
	path := filepath.Join(dir, name)
	var hdr fileHeader
	f, err := seam.Get().Open(path)
	if err == nil {
		hdr, err = decodeSnapshot(f, payload)
		_ = f.Close()
	}
	switch {
	case err == nil && match(hdr):
		counters.fileLoads.Add(1)
		return hdr, true
	case err == nil || errorsIsCorrupt(err):
		counters.loadErrors.Add(1)
		_ = seam.Get().Rename(path, path+".quarantine")
		counters.quarantines.Add(1)
	case !errors.Is(err, fs.ErrNotExist):
		counters.loadErrors.Add(1)
	}
	return hdr, false
}

// errorsIsCorrupt reports whether an error carries the ErrCorrupt tag.
func errorsIsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
