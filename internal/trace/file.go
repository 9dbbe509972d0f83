// Binary trace files persist packed recordings across runs (-trace-dir in
// coresim/mcsim/m3dcli). The format is deliberately simple and versioned:
//
//	offset  size  field
//	0       8     magic "M3DTRC02"
//	8       4     header length H (little-endian uint32)
//	12      H     JSON header {Profile, Seed, Stream, N}
//	12+H    N*8   PC lane      (little-endian uint64)
//	...     N*8   Addr lane
//	...     N*8   Target lane
//	...     N*2   Src1 lane    (little-endian int16, two's complement)
//	...     N*2   Src2 lane
//	...     N*2   Dst lane
//	...     N*1   meta lane    (Kind | Taken<<4 | Complex<<5)
//	...     4     CRC32 (IEEE) of all lane bytes (little-endian uint32)
//
// The trailing checksum covers every lane byte, so a bit flip anywhere in
// the payload makes the loader reject the file (ErrCorrupt) instead of
// replaying garbage into a sweep; the single-flight cache then regenerates
// the stream in memory. Version 01 files (no checksum) are rejected by the
// magic and regenerated the same way — recordings are pure functions of
// their identity, so nothing is lost.
//
// The JSON header carries the full Profile so a loaded recording can
// lazily rebuild its generator and extend past N on demand. Files are
// named by FileName, which folds an FNV-64a hash of the whole identity
// triple into the name, so two profiles sharing a Name never collide; the
// loader additionally re-verifies the identity before trusting a file.
//
// All file access goes through the internal/fsio seam (SetFS), so chaos
// tests inject storage faults underneath unmodified production code.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"

	"vertical3d/internal/fsio"
)

const fileMagic = "M3DTRC02"

// ErrCorrupt tags recordings rejected by the lane checksum (or any other
// structural damage past the magic). Callers that see it fall back to
// in-memory generation; errors.Is(err, ErrCorrupt) distinguishes a damaged
// file from a merely absent one.
var ErrCorrupt = errors.New("corrupt recording")

// seam is the filesystem the trace file layer routes through.
var seam fsio.Seam

// SetFS routes the trace file layer through an explicit filesystem seam
// (chaos tests pass an *fsio.Injector; nil restores the real filesystem).
// Package-level because the recording cache is process-global.
func SetFS(fs fsio.FS) { seam.Set(fs) }

// fileHeader is the JSON header of a trace file.
type fileHeader struct {
	Profile Profile
	Seed    int64
	Stream  int
	N       int
}

// FileName returns the canonical cache-directory file name for a stream:
// "<profile>_s<seed>_t<stream>_<fnv64 of the full identity>.m3dtrace".
func FileName(prof Profile, seed int64, stream int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|%d", prof, seed, stream)
	return fmt.Sprintf("%s_s%d_t%d_%016x.m3dtrace", fsio.SafeName(prof.Name), seed, stream, h.Sum64())
}

// Encode serialises the recording's current snapshot, appending the CRC32
// of the lane bytes so loaders can reject silent corruption.
func (r *Recording) Encode(w io.Writer) error {
	p := r.snap.Load()
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(fileHeader{Profile: r.prof, Seed: r.seed, Stream: r.stream, N: p.n})
	if err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(hdr))); err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	lanes := io.MultiWriter(bw, crc)
	buf := make([]byte, 8*recChunk)
	for lane := range laneCount {
		for j, c := range p.chunks {
			b := putLane(buf, c, lane, min(recChunk, p.n-j*recChunk))
			if _, err := lanes.Write(b); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadRecording deserialises a recording, verifying the lane checksum. The
// result extends on demand like any other recording: its generator is
// rebuilt lazily from the header's identity triple on the first read past
// N. A checksum mismatch, a header Encode would not have written, or bytes
// past the checksum return an identity-tagged error wrapping ErrCorrupt.
// Chunks are allocated as their bytes arrive, so a header claiming more
// instructions than the input holds costs no more memory than the input.
func ReadRecording(r io.Reader) (*Recording, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, fileMagic)
	}
	var hlen uint32
	if err := binary.Read(br, binary.LittleEndian, &hlen); err != nil {
		return nil, fmt.Errorf("trace: read header length: %w", err)
	}
	if hlen == 0 || hlen > 1<<20 {
		return nil, fmt.Errorf("trace: implausible header length %d", hlen)
	}
	hdrBytes, err := io.ReadAll(io.LimitReader(br, int64(hlen)))
	if err == nil && len(hdrBytes) != int(hlen) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	var hdr fileHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("trace: decode header: %w", err)
	}
	if canon, err := json.Marshal(hdr); err != nil || !bytes.Equal(canon, hdrBytes) {
		return nil, fmt.Errorf("trace: %w: non-canonical header", ErrCorrupt)
	}
	if hdr.N < 0 || hdr.N > 1<<31 {
		return nil, fmt.Errorf("trace: implausible instruction count %d", hdr.N)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("trace: %w: %s seed=%d stream=%d n=%d: %s",
			ErrCorrupt, hdr.Profile.Name, hdr.Seed, hdr.Stream, hdr.N, fmt.Sprintf(format, args...))
	}
	crc := crc32.NewIEEE()
	lanes := io.TeeReader(br, crc)
	buf := make([]byte, 8*recChunk)
	p := &packed{n: hdr.N}
	for lane := range laneCount {
		for j := 0; j*recChunk < hdr.N; j++ {
			if lane == 0 { // allocate each chunk as its first bytes arrive
				p.chunks = append(p.chunks, new(chunk))
			}
			k := min(recChunk, hdr.N-j*recChunk)
			b := buf[:k*laneSizes[lane]]
			if _, err := io.ReadFull(lanes, b); err != nil {
				return nil, fmt.Errorf("trace: read lanes: %w", err)
			}
			getLane(b, p.chunks[j], lane)
		}
	}
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("trace: read lane checksum: %w", err)
	}
	if got := crc.Sum32(); got != want {
		return nil, corrupt("lane checksum %08x != %08x", got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, corrupt("bytes past the lane checksum")
	}
	rec := &Recording{prof: hdr.Profile, seed: hdr.Seed, stream: hdr.Stream}
	rec.snap.Store(p)
	return rec, nil
}

// laneCount is the number of lanes, in file order: PC, Addr, Target,
// Src1, Src2, Dst, meta.
const laneCount = 7

// laneSizes is each lane's element size in bytes, in file order.
var laneSizes = [laneCount]int{8, 8, 8, 2, 2, 2, 1}

// putLane encodes the first k slots of one lane of c little-endian into
// buf and returns the encoded bytes.
func putLane(buf []byte, c *chunk, lane, k int) []byte {
	b := buf[:k*laneSizes[lane]]
	switch lane {
	case 0, 1, 2:
		for i, v := range [...]*[recChunk]uint64{&c.pc, &c.addr, &c.target}[lane][:k] {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
	case 3, 4, 5:
		for i, v := range [...]*[recChunk]int16{&c.src1, &c.src2, &c.dst}[lane-3][:k] {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(v))
		}
	default:
		copy(b, c.meta[:k])
	}
	return b
}

// getLane decodes little-endian lane bytes b into the first slots of one
// lane of c; the inverse of putLane.
func getLane(b []byte, c *chunk, lane int) {
	switch lane {
	case 0, 1, 2:
		dst := [...]*[recChunk]uint64{&c.pc, &c.addr, &c.target}[lane]
		for i := range len(b) / 8 {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	case 3, 4, 5:
		dst := [...]*[recChunk]int16{&c.src1, &c.src2, &c.dst}[lane-3]
		for i := range len(b) / 2 {
			dst[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
		}
	default:
		copy(c.meta[:], b)
	}
}

// SaveFile writes the recording to path durably and atomically
// (fsio.Publish): a concurrent or crashed writer never leaves a torn file
// for a later LoadFile to trust.
func SaveFile(path string, rec *Recording) error {
	return fsio.Publish(seam.Get(), path, ".m3dtrace-*", rec.Encode)
}

// LoadFile reads a recording from path.
func LoadFile(path string) (*Recording, error) {
	f, err := seam.Get().Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	rec, err := ReadRecording(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
