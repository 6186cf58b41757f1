// Package store persists compiled models: a versioned binary codec
// for yield.Snapshot (the frozen ROMDD arena plus model metadata) and
// a disk-backed, size-capped LRU store content-addressed by
// yield.ModelKey. Together they turn the expensive one-time build
// into a write-once artifact: every yieldd replica and every restart
// loads a compiled model in milliseconds instead of recompiling it.
//
// # Format (version 1)
//
//	offset 0  magic "SYCM" (4 bytes)
//	offset 4  format version, uint32 little-endian
//	offset 8  body — one contiguous varint stream:
//	            engine revision          uvarint
//	            model key                uvarint length + bytes
//	            system name              uvarint length + bytes
//	            components C             uvarint
//	            truncation point M       uvarint
//	            build summary            4 × float64 bits (8-byte LE):
//	                                       yield, error bound, P_L, λ'
//	                                     4 × uvarint:
//	                                       G gates, binary vars,
//	                                       coded-ROBDD size, ROMDD size
//	            group sequence           uvarint count + uvarint each
//	            ROMDD domains            uvarint count + uvarint each
//	            ROMDD node levels        uvarint count + uvarint each
//	                                     (internal nodes only; the two
//	                                     terminals are implicit)
//	            ROMDD child arrays       uvarint count + uvarint each
//	                                     (struct-of-arrays: offsets are
//	                                     recomputed from the levels)
//	            ROMDD root               uvarint
//	trailer   CRC-32C (Castagnoli) of everything before it, uint32 LE
//
// # Decoding discipline
//
// Decode must survive arbitrary hostile bytes: it never panics and
// never allocates memory unbounded by the input length. Every count
// read from the stream is checked against the bytes remaining (each
// element costs at least one byte) before any slice is allocated, all
// index arithmetic is bounds-checked, and the reconstructed arena goes
// through mdd.FrozenFromData and yield.Snapshot.Validate, which
// re-verify every structural invariant evaluation relies on. The
// checksum is verified before the body is parsed, so random corruption
// is caught up front; the structural checks exist for the adversarial
// case where the checksum itself was recomputed.
//
// Failures are distinct typed errors (ErrTruncated, ErrBadMagic,
// ErrVersion, ErrChecksum, ErrEngineRevision, ErrCorrupt) so callers
// can tell an incompatible store from a damaged one — and the server
// can fall back to a clean rebuild either way.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"socyield/internal/mdd"
	"socyield/internal/yield"
)

// Typed decode failures. Decode errors always wrap exactly one of
// these sentinels (ErrNotFound belongs to the disk store).
var (
	// ErrTruncated: the input ends before the structure it declares.
	ErrTruncated = errors.New("store: compiled model truncated")
	// ErrBadMagic: the input is not a compiled-model file at all.
	ErrBadMagic = errors.New("store: not a compiled-model file")
	// ErrVersion: the format version is not one this decoder reads.
	ErrVersion = errors.New("store: unsupported compiled-model format version")
	// ErrChecksum: the whole-file checksum does not match.
	ErrChecksum = errors.New("store: compiled model checksum mismatch")
	// ErrEngineRevision: the model was built by a different pipeline
	// revision; its diagrams may not match what this engine would build.
	ErrEngineRevision = errors.New("store: compiled model from a different engine revision")
	// ErrCorrupt: the bytes parse but violate a structural invariant.
	ErrCorrupt = errors.New("store: compiled model corrupt")
)

const (
	magic = "SYCM"
	// FormatVersion is the codec version Encode writes and Decode
	// accepts. Bump on any layout change; Decode rejects everything
	// else with ErrVersion.
	FormatVersion uint32 = 1

	// headerLen is magic + version; trailerLen the checksum.
	headerLen  = 8
	trailerLen = 4

	// maxStringLen bounds the key and name fields; maxCount bounds
	// every array (the per-element ≥ 1 byte rule bounds them tighter
	// for any real input).
	maxStringLen = 4096
	maxCount     = 1<<31 - 1
	// maxComponents is a format limit on the component count. Unlike
	// the arrays, C is a bare scalar the input pays nothing for, yet
	// restoring a model allocates O(C) — so a hostile file could
	// otherwise declare 2³⁰ components in five bytes. A million is far
	// beyond any SoC model and keeps the worst-case restore bounded.
	maxComponents = 1 << 20
)

// castagnoli is the CRC-32C table (the polynomial with hardware
// support on amd64/arm64, the conventional choice for storage
// checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes a snapshot. The output is deterministic: equal
// snapshots encode to equal bytes, which is what makes golden fixtures
// and content addressing meaningful.
func Encode(snap *yield.Snapshot) ([]byte, error) {
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("store: refusing to encode invalid snapshot: %w", err)
	}
	if len(snap.ModelKey) > maxStringLen {
		return nil, fmt.Errorf("store: model key of %d bytes exceeds %d", len(snap.ModelKey), maxStringLen)
	}
	if len(snap.SystemName) > maxStringLen {
		return nil, fmt.Errorf("store: system name of %d bytes exceeds %d", len(snap.SystemName), maxStringLen)
	}
	if snap.Components > maxComponents {
		return nil, fmt.Errorf("store: %d components exceeds the format limit %d", snap.Components, maxComponents)
	}
	data := snap.Frozen.Data()

	// The child array dominates the size: sizing it exactly instead of
	// at MaxVarintLen32 per entry cuts the buffer of a large model
	// about fourfold (ESEN8x2: 87 MB to 22 MB). The server encodes a
	// model right after building it, with the build's garbage still on
	// the heap.
	size := 64 + len(snap.ModelKey) + len(snap.SystemName) +
		binary.MaxVarintLen32*(len(snap.GroupSeq)+len(data.Domains)+len(data.Levels))
	for _, k := range data.Kids {
		size += uvarintLen(uint64(k))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = binary.AppendUvarint(buf, uint64(snap.EngineRevision))
	buf = appendString(buf, snap.ModelKey)
	buf = appendString(buf, snap.SystemName)
	buf = binary.AppendUvarint(buf, uint64(snap.Components))
	buf = binary.AppendUvarint(buf, uint64(snap.M))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(snap.Build.Yield))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(snap.Build.ErrorBound))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(snap.Build.PL))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(snap.Build.LambdaPrime))
	buf = binary.AppendUvarint(buf, uint64(snap.Build.GGates))
	buf = binary.AppendUvarint(buf, uint64(snap.Build.BinaryVars))
	buf = binary.AppendUvarint(buf, uint64(snap.Build.CodedROBDDSize))
	buf = binary.AppendUvarint(buf, uint64(snap.Build.ROMDDSize))
	buf = binary.AppendUvarint(buf, uint64(len(snap.GroupSeq)))
	for _, gi := range snap.GroupSeq {
		buf = binary.AppendUvarint(buf, uint64(gi))
	}
	buf = binary.AppendUvarint(buf, uint64(len(data.Domains)))
	for _, d := range data.Domains {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	// Internal nodes only — the two terminal slots are implied.
	buf = binary.AppendUvarint(buf, uint64(len(data.Levels)-2))
	for _, lv := range data.Levels[2:] {
		buf = binary.AppendUvarint(buf, uint64(lv))
	}
	buf = binary.AppendUvarint(buf, uint64(len(data.Kids)))
	for _, k := range data.Kids {
		buf = binary.AppendUvarint(buf, uint64(k))
	}
	buf = binary.AppendUvarint(buf, uint64(data.Root))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// reader is a bounds-checked cursor over the body bytes. Every read
// reports ErrTruncated instead of slicing past the end.
type reader struct {
	data []byte
	off  int
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		if n == 0 {
			return 0, fmt.Errorf("%w: %s", ErrTruncated, what)
		}
		return 0, fmt.Errorf("%w: %s varint overflows", ErrCorrupt, what)
	}
	r.off += n
	return v, nil
}

// count reads an array length and checks it against both the absolute
// cap and the bytes remaining (each element needs ≥ 1 byte), so a
// hostile length can never trigger an allocation larger than the
// input itself.
func (r *reader) count(what string, max uint64) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("%w: %s count %d exceeds %d", ErrCorrupt, what, v, max)
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("%w: %s count %d exceeds %d bytes of input", ErrTruncated, what, v, r.remaining())
	}
	return int(v), nil
}

func (r *reader) bytes(what string, n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("%w: %s", ErrTruncated, what)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) float64(what string) (float64, error) {
	b, err := r.bytes(what, 8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) string(what string) (string, error) {
	n, err := r.count(what, maxStringLen)
	if err != nil {
		return "", err
	}
	b, err := r.bytes(what, n)
	return string(b), err
}

func (r *reader) int32Array(what string, maxElem uint64) ([]int32, error) {
	n, err := r.count(what, maxCount)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		v, err := r.uvarint(what)
		if err != nil {
			return nil, err
		}
		if v > maxElem {
			return nil, fmt.Errorf("%w: %s[%d] = %d exceeds %d", ErrCorrupt, what, i, v, maxElem)
		}
		out[i] = int32(v)
	}
	return out, nil
}

// Decode parses a compiled model. The returned snapshot has passed
// every structural cross-check (mdd arena validation plus
// yield.Snapshot.Validate), so it is safe to hand to
// yield.RestoreReevaluator. The error, when non-nil, wraps exactly one
// of the typed sentinels above.
func Decode(data []byte) (*yield.Snapshot, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes, need ≥ %d", ErrTruncated, len(data), headerLen+trailerLen)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadMagic, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file version %d, decoder reads %d", ErrVersion, v, FormatVersion)
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	r := &reader{data: body, off: headerLen}

	rev, err := r.uvarint("engine revision")
	if err != nil {
		return nil, err
	}
	if rev > math.MaxUint32 {
		return nil, fmt.Errorf("%w: engine revision %d", ErrCorrupt, rev)
	}
	if uint32(rev) != yield.EngineRevision {
		return nil, fmt.Errorf("%w: model revision %d, engine revision %d", ErrEngineRevision, rev, yield.EngineRevision)
	}
	snap := &yield.Snapshot{EngineRevision: uint32(rev)}
	if snap.ModelKey, err = r.string("model key"); err != nil {
		return nil, err
	}
	if snap.SystemName, err = r.string("system name"); err != nil {
		return nil, err
	}
	var fields = []struct {
		what string
		dst  *int
		max  uint64
	}{
		{"components", &snap.Components, maxComponents},
		{"truncation point", &snap.M, maxCount},
	}
	for _, f := range fields {
		v, err := r.uvarint(f.what)
		if err != nil {
			return nil, err
		}
		if v > f.max {
			return nil, fmt.Errorf("%w: %s = %d", ErrCorrupt, f.what, v)
		}
		*f.dst = int(v)
	}
	for _, f := range []struct {
		what string
		dst  *float64
	}{
		{"yield", &snap.Build.Yield},
		{"error bound", &snap.Build.ErrorBound},
		{"P_L", &snap.Build.PL},
		{"lambda prime", &snap.Build.LambdaPrime},
	} {
		if *f.dst, err = r.float64(f.what); err != nil {
			return nil, err
		}
	}
	for _, f := range []struct {
		what string
		dst  *int
	}{
		{"G gates", &snap.Build.GGates},
		{"binary vars", &snap.Build.BinaryVars},
		{"coded-ROBDD size", &snap.Build.CodedROBDDSize},
		{"ROMDD size", &snap.Build.ROMDDSize},
	} {
		v, err := r.uvarint(f.what)
		if err != nil {
			return nil, err
		}
		if v > maxCount {
			return nil, fmt.Errorf("%w: %s = %d", ErrCorrupt, f.what, v)
		}
		*f.dst = int(v)
	}
	nseq, err := r.count("group sequence", maxCount)
	if err != nil {
		return nil, err
	}
	snap.GroupSeq = make([]int, nseq)
	for i := range snap.GroupSeq {
		v, err := r.uvarint("group sequence")
		if err != nil {
			return nil, err
		}
		if v > maxCount {
			return nil, fmt.Errorf("%w: group sequence[%d] = %d", ErrCorrupt, i, v)
		}
		snap.GroupSeq[i] = int(v)
	}
	var fd mdd.FrozenData
	if fd.Domains, err = r.int32Array("domains", maxCount); err != nil {
		return nil, err
	}
	nlevels, err := r.count("node levels", maxCount-2)
	if err != nil {
		return nil, err
	}
	// Reattach the implicit terminal slots at level len(Domains).
	fd.Levels = make([]int32, nlevels+2)
	fd.Levels[0] = int32(len(fd.Domains))
	fd.Levels[1] = int32(len(fd.Domains))
	for i := 2; i < len(fd.Levels); i++ {
		v, err := r.uvarint("node levels")
		if err != nil {
			return nil, err
		}
		if v > maxCount {
			return nil, fmt.Errorf("%w: node level %d", ErrCorrupt, v)
		}
		fd.Levels[i] = int32(v)
	}
	if fd.Kids, err = r.int32Array("child arrays", maxCount); err != nil {
		return nil, err
	}
	root, err := r.uvarint("root")
	if err != nil {
		return nil, err
	}
	if root > maxCount {
		return nil, fmt.Errorf("%w: root %d", ErrCorrupt, root)
	}
	fd.Root = int32(root)
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the root", ErrCorrupt, r.remaining())
	}
	if snap.Frozen, err = mdd.FrozenFromData(fd); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
