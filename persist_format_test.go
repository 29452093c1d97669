package hope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// TestPersistReadsVersion1: snapshots are written as version 3, and a
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
		if snap.Version != snapshot.Version || snapshot.Version != 3 {
			t.Fatalf("%s: snapshot written as version %d, want 3", name, snap.Version)
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

// TestPersistRestoresRetiredIndexKind: store kind 0 marked the retired
// single-goroutine Index, and no dump writes it any more; a snapshot of
// that kind — version 3, and the same sections under the version-1 meta
// layout — restores into a 1-shard hash ShardedIndex whose Len, Get and
// every scanBounds() scan (stored keys and values) equal the source's.
func TestPersistRestoresRetiredIndexKind(t *testing.T) {
	keys := adversarialCorpus()
	for _, enc := range []*core.Encoder{nil, testEncoders(t)[core.ThreeGrams]} {
		src := loadIndex(t, BTree, encCloneOrNil(enc), keys)
		snap, _ := snapshotOf(t, BTree, keys, WithEncoder(encCloneOrNil(enc)))
		meta, err := decodeMeta(snap.Sections[0].Payload, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		if meta.storeKind != kindSharded || meta.shards != 1 || meta.partition != 0 {
			t.Fatalf("encoded=%v: default store dumped as kind %d, %d shards, partition %d; want kind %d, 1 hash shard",
				enc != nil, meta.storeKind, meta.shards, meta.partition, kindSharded)
		}
		meta.storeKind = kindIndex
		for _, version := range []uint32{3, 1} {
			name := fmt.Sprintf("encoded=%v/v%d", enc != nil, version)
			old := append([]snapshot.Section(nil), snap.Sections...)
			if version == 1 {
				old[0].Payload = encodeMetaV1(meta, 1)
			} else {
				old[0].Payload = encodeMeta(meta)
			}
			dir := t.TempDir()
			writeSnapshotFile(t, dir, version, snap.Generation, old)
			p := mustOpen(t, BTree, WithSnapshotDir(dir)).(*Persistent)
			if !p.Restored() {
				t.Fatalf("%s: kind-%d snapshot not restored", name, kindIndex)
			}
			got, ok := p.Unwrap().(*ShardedIndex)
			if !ok || got.NumShards() != 1 || got.Partitioner().Ordered() {
				t.Fatalf("%s: restored %T, want a 1-shard hash *ShardedIndex", name, p.Unwrap())
			}
			if got.Len() != src.Len() {
				t.Fatalf("%s: restored Len = %d, want %d", name, got.Len(), src.Len())
			}
			for i, k := range keys {
				if v, ok := got.Get(k); !ok || v != uint64(i) {
					t.Fatalf("%s: Get(%q) = %d,%v, want %d,true", name, k, v, ok, i)
				}
			}
			bounds := scanBounds()
			for _, lo := range bounds {
				for _, hi := range append(bounds, nil) {
					want, have := collectStored(src, lo, hi), collectStored(got, lo, hi)
					if !slices.Equal(have, want) {
						t.Fatalf("%s: Scan(%q, %q) = %v, want %v", name, lo, hi, have, want)
					}
				}
			}
			p.Close()
		}
	}
}

// collectStored returns the stored keys and values one scan visits.
func collectStored(s Store, lo, hi []byte) []kv {
	var out []kv
	s.Scan(lo, hi, func(k []byte, v uint64) bool {
		out = append(out, kv{string(k), v})
		return true
	})
	return out
}

// fnvShard is the routing of snapshot format versions 1 and 2: FNV-1a
// over the key bytes, high half folded in, masked to the shard count.
func fnvShard(key []byte, shards int) int {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return int((h ^ h>>32) & uint64(shards-1))
}

// TestPersistReroutesOldHashSnapshots: a hash-partitioned store of more
// than one shard written before format version 3 holds its keys in the
// shards FNV-1a chose. Restored, every key is decoded and re-routed by
// today's hash — the runs are never loaded into the shards they were
// written to — so every key returns its value and full and prefix scans
// match the model. The snapshots are version-2 files built here: a
// version-3 snapshot of the same store with its runs regrouped by FNV-1a.
func TestPersistReroutesOldHashSnapshots(t *testing.T) {
	keys := adversarialCorpus()
	enc := testEncoders(t)[core.ThreeGrams]
	dec, err := core.NewTableDecoder(enc)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	cases := []struct {
		name    string
		backend Backend
		opts    []Option
	}{
		{"Sharded/B+tree/compressed", BTree, []Option{WithEncoder(enc.Clone()), WithShards(shards)}},
		{"Sharded/B+tree/uncompressed", BTree, []Option{WithShards(shards)}},
		{"Sharded/ART/compressed", ART, []Option{WithEncoder(enc.Clone()), WithShards(shards)}},
		{"Sharded/ART/uncompressed", ART, []Option{WithShards(shards)}},
		{"Adaptive/ART", ART, []Option{WithAdaptive(AdaptiveOptions{Encoder: enc.Clone(), Shards: shards, Manual: true})}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap, o := snapshotOf(t, c.backend, keys, c.opts...)
			meta, err := decodeMeta(snap.Sections[0].Payload, snap.Version)
			if err != nil {
				t.Fatal(err)
			}
			type entry struct {
				stored []byte
				val    uint64
			}
			old := make([][]entry, shards)
			var v2 []snapshot.Section
			moved := 0
			for _, sec := range snap.Sections {
				if sec.Kind != secRun {
					v2 = append(v2, sec)
					continue
				}
				stored, vals, err := decodeRun(sec.Payload)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range stored {
					orig := k
					if meta.scheme >= 0 {
						if orig, err = dec.AppendDecode(nil, k); err != nil {
							t.Fatal(err)
						}
					}
					w := fnvShard(orig, shards)
					if w != sec.Shard {
						moved++
					}
					old[w] = append(old[w], entry{k, vals[i]})
				}
			}
			if moved == 0 {
				t.Fatal("FNV-1a routes every key to its current shard; the fixture tests nothing")
			}
			for w, run := range old {
				sort.Slice(run, func(i, j int) bool { return bytes.Compare(run[i].stored, run[j].stored) < 0 })
				ks, vs := make([][]byte, len(run)), make([]uint64, len(run))
				for i, e := range run {
					ks[i], vs[i] = e.stored, e.val
				}
				v2 = append(v2, snapshot.Section{Kind: secRun, Shard: w, Payload: encodeRun(ks, vs)})
			}
			dir := t.TempDir()
			writeSnapshotFile(t, dir, 2, snap.Generation, v2)
			st := mustOpen(t, c.backend, WithSnapshotDir(dir))
			defer st.Close()
			if !st.(*Persistent).Restored() {
				t.Fatal("version-2 snapshot not restored")
			}
			checkRestoredEquals(t, st, o)
			for _, p := range [][]byte{[]byte("com.gmail@"), []byte("app"), []byte("a"), {0xff}, {0x00}} {
				var want []uint64
				for _, k := range o.keys { // sorted by checkRestoredEquals
					if bytes.HasPrefix(k, p) {
						want = append(want, o.vals[string(k)])
					}
				}
				var got []uint64
				st.ScanPrefix(p, func(_ []byte, v uint64) bool {
					got = append(got, v)
					return true
				})
				if !slices.Equal(got, want) {
					t.Fatalf("ScanPrefix(%q) visited values %v, want %v", p, got, want)
				}
			}
		})
	}
}

// TestPersistRefusesUnknownVersion: a snapshot stamped with a version
// outside 1..3 is refused with ErrSnapshotCorrupt, the way a reader that
// knows only version 1 refuses a version-2 file.
func TestPersistRefusesUnknownVersion(t *testing.T) {
	keys := adversarialCorpus()
	snap, _ := snapshotOf(t, BTree, keys, WithEncoder(testEncoders(t)[core.SingleChar].Clone()))
	for _, v := range []uint32{0, 4} {
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
