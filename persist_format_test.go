package hope

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/hutucker"
	"repro/internal/snapshot"
)

// writeSnapshotFile writes one snapshot generation into dir in the
// framing internal/snapshot documents, stamped with the given header
// version: the fixture writer for versions this build no longer writes
// (or never wrote).
func writeSnapshotFile(t *testing.T, dir string, version uint32, gen uint64, sections []snapshot.Section) {
	t.Helper()
	table := crc32.MakeTable(crc32.Castagnoli)
	b := []byte("HOPESNP1")
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, table))
	frame := func(kind uint8, shard int, payload []byte) {
		start := len(b)
		b = append(b, kind)
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(shard)))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
		b = append(b, payload...)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], table))
	}
	for _, s := range sections {
		frame(s.Kind, s.Shard, s.Payload)
	}
	frame(snapshot.FooterKind, -1, binary.LittleEndian.AppendUint64(nil, uint64(len(sections))))
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.hope", gen)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// encodeMetaV1 is the version-1 meta layout: the version-2 layout plus a
// u64 (the longest stored key) between the shard count and the key count.
func encodeMetaV1(m snapMeta, longestKey uint64) []byte {
	b := appendU8(nil, m.storeKind)
	b = appendBytes(b, []byte(m.backend))
	b = appendU32(b, uint32(m.scheme))
	b = appendU32(b, m.alphabet)
	b = appendBool(b, m.forceBS)
	b = appendU8(b, m.partition)
	b = appendU32(b, m.shards)
	b = appendU64(b, longestKey)
	b = appendU64(b, m.keyCount)
	b = appendU32(b, uint32(len(m.splits)))
	for _, s := range m.splits {
		b = appendBytes(b, s)
	}
	return b
}

// snapshotOf snapshots a store opened with opts over keys (val i for key
// i) and returns the committed snapshot and the oracle of its contents.
func snapshotOf(t *testing.T, backend Backend, keys [][]byte, opts ...Option) (*snapshot.Snapshot, *persistOracle) {
	t.Helper()
	dir := t.TempDir()
	st := mustOpen(t, backend, append(opts, WithSnapshotDir(dir))...)
	if err := st.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.(*Persistent).Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	d := snapshot.Dir{FS: snapshot.OS(), Path: dir}
	snap, err := d.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	o := newPersistOracle()
	for i, k := range keys {
		o.put(k, uint64(i))
	}
	return snap, o
}

// TestPersistReadsVersion1: snapshots are written as version 2, and a
// version-1 snapshot — the same sections with the version-1 meta layout —
// still restores, with its longest-key slot ignored: prefix scans over the
// restored store match the model whatever the slot says.
func TestPersistReadsVersion1(t *testing.T) {
	keys := adversarialCorpus()
	enc := testEncoders(t)[core.ThreeGrams]
	shapes := map[string][]Option{
		"Index":         {WithEncoder(enc.Clone())},
		"range sharded": {WithEncoder(enc.Clone()), WithShards(4), WithRangePartitioner(keys)},
	}
	for name, opts := range shapes {
		snap, o := snapshotOf(t, BTree, keys, opts...)
		if snap.Version != snapshot.Version || snapshot.Version != 2 {
			t.Fatalf("%s: snapshot written as version %d, want 2", name, snap.Version)
		}
		meta, err := decodeMeta(snap.Sections[0].Payload, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		v1 := append([]snapshot.Section(nil), snap.Sections...)
		v1[0].Payload = encodeMetaV1(meta, 1) // far below the longest key
		dir := t.TempDir()
		writeSnapshotFile(t, dir, 1, snap.Generation, v1)
		st := mustOpen(t, BTree, WithSnapshotDir(dir))
		if !st.(*Persistent).Restored() {
			t.Fatalf("%s: version-1 snapshot not restored", name)
		}
		checkRestoredEquals(t, st, o)
		for _, p := range [][]byte{[]byte("com.gmail@"), []byte("app"), {0xff}, {0x00}} {
			want := 0
			for _, k := range o.keys {
				if len(k) >= len(p) && string(k[:len(p)]) == string(p) {
					want++
				}
			}
			if got := st.ScanPrefix(p, func([]byte, uint64) bool { return true }); got != want {
				t.Fatalf("%s: ScanPrefix(%q) after a version-1 restore visited %d keys, want %d", name, p, got, want)
			}
		}
		st.Close()
	}
}

// TestPersistRefusesUnknownVersion: a snapshot stamped with a version
// outside 1..2 is refused with ErrSnapshotCorrupt, the way a reader that
// knows only version 1 refuses a version-2 file.
func TestPersistRefusesUnknownVersion(t *testing.T) {
	keys := adversarialCorpus()
	snap, _ := snapshotOf(t, BTree, keys, WithEncoder(testEncoders(t)[core.SingleChar].Clone()))
	for _, v := range []uint32{0, 3} {
		dir := t.TempDir()
		writeSnapshotFile(t, dir, v, snap.Generation, snap.Sections)
		st, err := Open(BTree, WithSnapshotDir(dir))
		if !errors.Is(err, ErrSnapshotCorrupt) || st != nil {
			t.Fatalf("version %d: Open = %v, %v; want no store and ErrSnapshotCorrupt", v, st, err)
		}
	}
}

// TestPersistRefusesNonStrictDictionary: a snapshot whose dictionary
// Reassemble refuses — entry 0 an all-zero code under 8 bits, or codes out
// of order — fails Open with ErrSnapshotCorrupt (and, for the padding
// case, core.ErrAmbiguousPadding) instead of serving keys that would
// misorder or merge.
func TestPersistRefusesNonStrictDictionary(t *testing.T) {
	e, err := core.Build(core.SingleChar, adversarialCorpus(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shortZero := append([]dict.Entry(nil), e.Entries()...)
	shortZero[0].Code = hutucker.Code{Len: 3}
	swapped := append([]dict.Entry(nil), e.Entries()...)
	swapped[10].Code, swapped[11].Code = swapped[11].Code, swapped[10].Code
	for name, c := range map[string]struct {
		entries []dict.Entry
		want    error
	}{
		"short zero entry 0": {shortZero, core.ErrAmbiguousPadding},
		"swapped codes":      {swapped, ErrSnapshotCorrupt},
	} {
		dir := t.TempDir()
		d := snapshot.Dir{FS: snapshot.OS(), Path: dir}
		err := d.Commit(1, func(w *snapshot.Writer) error {
			meta := snapMeta{storeKind: kindIndex, backend: BTree, scheme: int32(core.SingleChar), shards: 1}
			if err := w.Section(secMeta, -1, encodeMeta(meta)); err != nil {
				return err
			}
			if err := w.Section(secDict, -1, encodeDict(c.entries)); err != nil {
				return err
			}
			return w.Section(secRun, 0, encodeRun(nil, nil))
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(BTree, WithSnapshotDir(dir))
		if !errors.Is(err, ErrSnapshotCorrupt) || !errors.Is(err, c.want) || st != nil {
			t.Fatalf("%s: Open = %v, %v; want no store, ErrSnapshotCorrupt and %v", name, st, err, c.want)
		}
	}
}

// FuzzDecodeSections: the meta (both layouts), dictionary and run section
// decoders never panic on arbitrary payloads, never size an allocation by
// a count the payload cannot hold, and report every failure as
// ErrSnapshotCorrupt.
func FuzzDecodeSections(f *testing.F) {
	meta := snapMeta{storeKind: kindSharded, backend: ART, scheme: 2, shards: 4, keyCount: 9,
		splits: [][]byte{[]byte("g"), []byte("p"), []byte("w")}}
	f.Add(encodeMeta(meta))
	f.Add(encodeMetaV1(meta, 12))
	f.Add(encodeDict([]dict.Entry{{Boundary: []byte{0}, SymbolLen: 1, Code: hutucker.Code{Len: 8}}}))
	f.Add(encodeRun([][]byte{[]byte("a"), {}}, []uint64{1, 2}))
	f.Add(appendU32(nil, 1<<31+7)) // dict count far beyond the payload
	f.Add(appendU64(nil, 1<<62))   // run count beyond any allocation
	// Meta payloads that end in a split count beyond the payload.
	noSplits := meta
	noSplits.splits = nil
	for _, b := range [][]byte{encodeMeta(noSplits), encodeMetaV1(noSplits, 1)} {
		f.Add(appendU32(b[:len(b)-4], 1<<31+7))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		check := func(section string, err error) {
			if err != nil && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("%s: %v is not ErrSnapshotCorrupt", section, err)
			}
		}
		_, err := decodeMeta(payload, 1)
		check("meta v1", err)
		_, err = decodeMeta(payload, 2)
		check("meta v2", err)
		_, err = decodeDict(payload)
		check("dict", err)
		_, _, err = decodeRun(payload)
		check("run", err)
	})
}
