// Package snapshot is the crash-consistent persistence layer under
// hope.Persistent: a versioned, checksummed, section-framed snapshot file
// format, the atomic write-temp-fsync-rename commit protocol around it,
// and generation-numbered retention with a validate-and-fall-back reader.
//
// The package is deliberately ignorant of what the sections mean — the
// hope package serializes its dictionary and per-shard encoded runs into
// opaque payloads — so the framing, checksums, and commit discipline can
// be tested (and fault-injected) in isolation.
//
// # File format
//
// One snapshot is a single file, all integers little-endian:
//
//	header:  magic "HOPESNP1" | version u32 | generation u64 | crc u32
//	section: kind u8 | shard i32 | payload-len u64 | payload | crc u32
//	footer:  a section with kind 0xFF whose payload is the u64 count of
//	         the preceding sections
//
// Every CRC is CRC-32C (Castagnoli) over the bytes of its frame (header
// or section) that precede it. The footer doubles as the torn-write
// detector: a file that ends before a complete, checksummed footer was
// interrupted mid-write (ErrTorn); a file whose bytes are present but
// inconsistent — bad magic, failed CRC, trailing garbage, a footer count
// that disagrees — was corrupted (ErrCorrupt). The distinction matters
// only for diagnostics; the reader's fallback ladder treats both as
// "this generation is unusable, try the previous one".
//
// # Commit protocol
//
// Dir.Commit writes "snap-<generation>.hope" in four ordered steps:
// write everything to a ".tmp" sibling, fsync it, rename it over the
// final name, fsync the directory. A crash between any two steps leaves
// either the previous generation intact (tmp files are ignored and
// reaped) or the new file fully durable — never a half-visible snapshot.
// The previous generation's file is retained until the new one is
// durable; Prune removes older ones after a successful commit.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Typed failure taxonomy, checked with errors.Is.
var (
	// ErrCorrupt reports a snapshot whose bytes are present but
	// inconsistent: bad magic, a failed section checksum, trailing
	// garbage, or a footer that disagrees with the sections before it.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrTorn reports a snapshot cut off mid-write: the file ends before
	// a complete, checksummed footer.
	ErrTorn = errors.New("snapshot: torn write")
	// ErrNoSnapshot reports a directory holding no snapshot generation at
	// all (distinct from holding only unusable ones).
	ErrNoSnapshot = errors.New("snapshot: no snapshot found")
)

const (
	magic = "HOPESNP1"

	// Version is the format version Writer stamps into the header. The
	// section framing is the same in every version; the version tells the
	// caller how to read its payloads (version 2 drops a field from the
	// hope meta section; version 3 changes the hash that routed the hope
	// runs of a hash-partitioned store), and Decode accepts
	// minVersion..Version. A reader that knows only version 1 refuses
	// version-2 files as corrupt.
	Version    = 3
	minVersion = 1

	// FooterKind is the reserved section kind closing every snapshot;
	// payload kinds must stay below it.
	FooterKind = 0xFF

	headerLen = len(magic) + 4 + 8 + 4 // magic | version | generation | crc
	frameLen  = 1 + 4 + 8              // kind | shard | payload-len
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one framed unit of a snapshot: an opaque payload tagged with
// a caller-defined kind and the shard it concerns (-1 when whole-index).
type Section struct {
	Kind    uint8
	Shard   int
	Payload []byte
}

// Snapshot is one fully validated snapshot file.
type Snapshot struct {
	Version    uint32 // the header's format version, 1 to Version
	Generation uint64
	Sections   []Section
}

// Writer streams one snapshot file: header on construction, Section per
// payload, Finish for the footer. It does not own the File — the commit
// protocol around it (Dir.Commit) syncs, closes, and renames.
type Writer struct {
	f   File
	n   uint64
	buf []byte
}

// NewWriter writes the header and returns a section writer.
func NewWriter(f File, generation uint64) (*Writer, error) {
	w := &Writer{f: f}
	w.buf = append(w.buf, magic...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Version)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, generation)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf, castagnoli))
	if _, err := f.Write(w.buf); err != nil {
		return nil, err
	}
	return w, nil
}

// Section writes one framed, checksummed section.
func (w *Writer) Section(kind uint8, shard int, payload []byte) error {
	if kind == FooterKind {
		return fmt.Errorf("snapshot: section kind %#x is reserved for the footer", FooterKind)
	}
	if err := w.section(kind, shard, payload); err != nil {
		return err
	}
	w.n++
	return nil
}

func (w *Writer) section(kind uint8, shard int, payload []byte) error {
	w.buf = w.buf[:0]
	w.buf = append(w.buf, kind)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(int32(shard)))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(len(payload)))
	crc := crc32.Checksum(w.buf, castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	// One Write per frame part: header, payload, crc. Separate writes keep
	// the fault VFS's torn-write simulation meaningful (a fault tears one
	// part, not a private concatenation).
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.f.Write(payload); err != nil {
			return err
		}
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf[:0], crc)
	_, err := w.f.Write(w.buf)
	return err
}

// Finish writes the footer. The caller still owns Sync and Close.
func (w *Writer) Finish() error {
	payload := binary.LittleEndian.AppendUint64(nil, w.n)
	return w.section(FooterKind, -1, payload)
}

// Decode parses and fully validates one snapshot image. Every byte is
// checksummed before any section is returned — a restore never acts on a
// partially validated file.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte file, header needs %d", ErrTorn, len(data), headerLen)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	hdr := data[:headerLen-4]
	if crc32.Checksum(hdr, castagnoli) != binary.LittleEndian.Uint32(data[headerLen-4:headerLen]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(data[len(magic):])
	if v < minVersion || v > Version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d to %d", ErrCorrupt, v, minVersion, Version)
	}
	snap := &Snapshot{Version: v, Generation: binary.LittleEndian.Uint64(data[len(magic)+4:])}

	off := headerLen
	sealed := false
	for off < len(data) {
		if sealed {
			return nil, fmt.Errorf("%w: %d trailing bytes after footer", ErrCorrupt, len(data)-off)
		}
		if len(data)-off < frameLen {
			return nil, fmt.Errorf("%w: truncated section frame at offset %d", ErrTorn, off)
		}
		kind := data[off]
		shard := int(int32(binary.LittleEndian.Uint32(data[off+1:])))
		plen := binary.LittleEndian.Uint64(data[off+5:])
		body := off + frameLen
		if plen > uint64(len(data)-body) {
			return nil, fmt.Errorf("%w: section at offset %d claims %d payload bytes, %d remain", ErrTorn, off, plen, len(data)-body)
		}
		end := body + int(plen)
		if len(data)-end < 4 {
			return nil, fmt.Errorf("%w: section at offset %d missing checksum", ErrTorn, off)
		}
		want := binary.LittleEndian.Uint32(data[end:])
		if crc32.Checksum(data[off:end], castagnoli) != want {
			return nil, fmt.Errorf("%w: section checksum mismatch at offset %d", ErrCorrupt, off)
		}
		payload := data[body:end]
		off = end + 4
		if kind == FooterKind {
			if plen != 8 {
				return nil, fmt.Errorf("%w: footer payload is %d bytes, want 8", ErrCorrupt, plen)
			}
			if n := binary.LittleEndian.Uint64(payload); n != uint64(len(snap.Sections)) {
				return nil, fmt.Errorf("%w: footer counts %d sections, file has %d", ErrCorrupt, n, len(snap.Sections))
			}
			sealed = true
			continue
		}
		snap.Sections = append(snap.Sections, Section{Kind: kind, Shard: shard, Payload: payload})
	}
	if !sealed {
		return nil, fmt.Errorf("%w: no footer", ErrTorn)
	}
	return snap, nil
}

// Dir manages the generation-numbered snapshot files of one directory
// through a VFS.
type Dir struct {
	FS   VFS
	Path string
}

// fileName is the canonical name of one generation's snapshot file.
// Zero-padded hex so lexicographic directory order is generation order.
func fileName(gen uint64) string { return fmt.Sprintf("snap-%016x.hope", gen) }

// parseGen inverts fileName; ok is false for foreign files (including the
// commit protocol's .tmp intermediates).
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".hope") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".hope")
	if len(hex) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Generations lists the committed generation numbers, ascending. A
// missing directory is an empty list, not an error.
func (d *Dir) Generations() ([]uint64, error) {
	names, err := d.FS.ReadDir(d.Path)
	if err != nil {
		return nil, nil // no directory yet: nothing committed
	}
	var gens []uint64
	for _, n := range names {
		if g, ok := parseGen(n); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Commit durably writes generation gen: sections streams the payloads
// through a Writer; Commit wraps it in the header/footer framing and the
// write-temp-fsync-rename-dirsync protocol. On any error the temp file
// is reaped (best effort) and the directory's committed state is
// unchanged.
func (d *Dir) Commit(gen uint64, sections func(w *Writer) error) (err error) {
	if err := d.FS.MkdirAll(d.Path); err != nil {
		return err
	}
	final := filepath.Join(d.Path, fileName(gen))
	tmp := final + ".tmp"
	f, err := d.FS.Create(tmp)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			_ = d.FS.Remove(tmp) // best effort; a leftover tmp is inert
		}
	}()
	w, err := NewWriter(f, gen)
	if err != nil {
		f.Close()
		return err
	}
	if err := sections(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Finish(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := d.FS.Rename(tmp, final); err != nil {
		return err
	}
	if err := d.FS.SyncDir(d.Path); err != nil {
		return err
	}
	committed = true
	return nil
}

// Load reads and fully validates one committed generation.
func (d *Dir) Load(gen uint64) (*Snapshot, error) {
	f, err := d.FS.Open(filepath.Join(d.Path, fileName(gen)))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("generation %d: %w", gen, err)
	}
	if snap.Generation != gen {
		return nil, fmt.Errorf("%w: file named generation %d carries %d", ErrCorrupt, gen, snap.Generation)
	}
	return snap, nil
}

// LoadNewest walks the committed generations newest-first and returns the
// first that validates — the fallback ladder. A torn or corrupt newest
// generation (a crash mid-commit, bit rot) silently falls back to the one
// before it; only when every present generation is unusable does the
// last failure surface (ErrNoSnapshot when none is present at all).
func (d *Dir) LoadNewest() (*Snapshot, error) {
	gens, err := d.Generations()
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, ErrNoSnapshot
	}
	var lastErr error
	for i := len(gens) - 1; i >= 0; i-- {
		snap, err := d.Load(gens[i])
		if err == nil {
			return snap, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("snapshot: all %d generations unusable: %w", len(gens), lastErr)
}

// Prune removes committed generations beyond the newest keep, plus any
// leftover tmp intermediates from interrupted commits. Remove errors are
// returned but pruning continues — a file that cannot be reaped today
// will be retried after the next commit.
func (d *Dir) Prune(keep int) error {
	names, err := d.FS.ReadDir(d.Path)
	if err != nil {
		return nil
	}
	var gens []uint64
	var firstErr error
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") && strings.HasPrefix(n, "snap-") {
			if err := d.FS.Remove(filepath.Join(d.Path, n)); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if g, ok := parseGen(n); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	if keep < 1 {
		keep = 1
	}
	for len(gens) > keep {
		if err := d.FS.Remove(filepath.Join(d.Path, fileName(gens[0]))); err != nil && firstErr == nil {
			firstErr = err
		}
		gens = gens[1:]
	}
	return firstErr
}
