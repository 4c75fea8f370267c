package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
)

// logBlob is a deterministic pseudo-random snapshot of n bytes for version v.
func logBlob(v, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(v))).Read(b)
	return b
}

func newFileStore(t testing.TB) *FileStateStore {
	t.Helper()
	s, err := NewFileStateStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// putVersions stores versions from..to of id with blobs of size n.
func putVersions(t *testing.T, s *FileStateStore, id string, from, to, n int) {
	t.Helper()
	for v := from; v <= to; v++ {
		if err := s.Put(id, int64(v), logBlob(v, n)); err != nil {
			t.Fatalf("Put v%d: %v", v, err)
		}
	}
}

func readLog(t *testing.T, s *FileStateStore, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeLog(t *testing.T, s *FileStateStore, id string, data []byte) {
	t.Helper()
	if err := os.WriteFile(s.path(id), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantLoad asserts Load returns exactly version v with its blob of size n.
func wantLoad(t *testing.T, s *FileStateStore, id string, v, n int, what string) {
	t.Helper()
	blob, ver, ok, err := s.Load(id)
	if err != nil || !ok || ver != int64(v) || !bytes.Equal(blob, logBlob(v, n)) {
		t.Fatalf("%s: Load = ver %d ok=%v err=%v (blob equal: %v), want v%d",
			what, ver, ok, err, bytes.Equal(blob, logBlob(v, n)), v)
	}
}

// TestFileStateStoreTornAppend cuts the log at every byte of its last
// append: each cut is an uncommitted write, so Load returns the previous
// version, and the next Put truncates the cut and appends cleanly.
func TestFileStateStoreTornAppend(t *testing.T) {
	const id, n = "s-1", 300
	s := newFileStore(t)
	putVersions(t, s, id, 1, 3, n)
	before := readLog(t, s, id)
	putVersions(t, s, id, 4, 4, n)
	after := readLog(t, s, id)
	for k := len(before); k < len(after); k++ {
		writeLog(t, s, id, after[:k])
		wantLoad(t, s, id, 3, n, fmt.Sprintf("cut at byte %d of the append", k-len(before)))
	}
	for _, k := range []int{len(before) + 1, len(before) + 20, len(after) - 1} {
		writeLog(t, s, id, after[:k])
		putVersions(t, s, id, 4, 4, n)
		if got := readLog(t, s, id); !bytes.Equal(got, after) {
			t.Fatalf("Put after a cut at %d left %d bytes, want the clean %d-byte log", k, len(got), len(after))
		}
	}
	// A cut longer than the record that replaces it must not survive
	// behind that record.
	writeLog(t, s, id, after[:len(after)-1])
	putVersions(t, s, id, 4, 4, n/2)
	if got, want := readLog(t, s, id), appendRecord(bytes.Clone(before), 4, logBlob(4, n/2)); !bytes.Equal(got, want) {
		t.Fatalf("Put of a shorter record over a cut left %d bytes, want %d", len(got), len(want))
	}
	wantLoad(t, s, id, 4, n/2, "shorter record over a cut")

	// The very first append, cut anywhere (signature included), commits
	// nothing.
	first := appendRecord([]byte(logMagic), 1, logBlob(1, n))
	for k := 1; k < len(first); k++ {
		writeLog(t, s, id, first[:k])
		if blob, _, ok, err := s.Load(id); ok || err != nil {
			t.Fatalf("first append cut at %d: Load = %d bytes ok=%v err=%v, want nothing", k, len(blob), ok, err)
		}
	}
	putVersions(t, s, id, 1, 1, n)
	if got := readLog(t, s, id); !bytes.Equal(got, first) {
		t.Fatal("Put over a cut first append did not rewrite the log from scratch")
	}
}

// TestFileStateStoreTornCompaction replays a compaction cut at every byte:
// during the append the previous version survives, and from then on the
// new record stays intact at EOF, so a half-copied front never matters.
func TestFileStateStoreTornCompaction(t *testing.T) {
	const id, n = "s-1", 200
	s := newFileStore(t)
	putVersions(t, s, id, 1, logCompactFactor-1, n)
	before := readLog(t, s, id)
	putVersions(t, s, id, logCompactFactor, logCompactFactor, n)
	after := readLog(t, s, id)
	rec := appendRecord(nil, logCompactFactor, logBlob(logCompactFactor, n))
	if want := append([]byte(logMagic), rec...); !bytes.Equal(after, want) {
		t.Fatalf("log after the %dth append is %d bytes, want it compacted to %d", logCompactFactor, len(after), len(want))
	}
	appended := append(append([]byte(nil), before...), rec...)
	for k := len(before); k < len(appended); k++ {
		writeLog(t, s, id, appended[:k])
		wantLoad(t, s, id, logCompactFactor-1, n, fmt.Sprintf("append cut at byte %d", k-len(before)))
	}
	for j := 0; j <= len(rec); j++ {
		copied := append([]byte(nil), appended...)
		copy(copied[logSigLen:], rec[:j])
		writeLog(t, s, id, copied)
		wantLoad(t, s, id, logCompactFactor, n, fmt.Sprintf("copy cut at byte %d", j))
	}
}

// TestFileStateStoreDetectsCorruption flips one byte in each region of the
// log. A flip in the signature or the newest record is an error; a flip in
// an older record is never read. Load never returns a wrong blob.
func TestFileStateStoreDetectsCorruption(t *testing.T) {
	const id, n = "s-1", 100
	s := newFileStore(t)
	putVersions(t, s, id, 1, 3, n)
	clean := readLog(t, s, id)
	flipLoad := func(pos int) (int64, error) {
		data := append([]byte(nil), clean...)
		data[pos] ^= 0xff
		writeLog(t, s, id, data)
		blob, ver, ok, err := s.Load(id)
		if ok && !(ver == 3 && bytes.Equal(blob, logBlob(3, n)) || ver == 2 && bytes.Equal(blob, logBlob(2, n))) {
			t.Fatalf("flip at byte %d: Load returned a wrong blob (ver %d)", pos, ver)
		}
		return ver, err
	}
	for _, pos := range []int{0, int(logSigLen) - 1} {
		if _, err := flipLoad(pos); err == nil {
			t.Fatalf("flip at signature byte %d: Load succeeded", pos)
		}
	}
	recLen := n + recOverhead
	newest := len(clean) - recLen
	for _, r := range []struct {
		name string
		at   int
	}{
		{"header tag", 0}, {"header length", 4}, {"header version", 8}, {"header version sign", 15},
		{"blob start", recHeadLen}, {"blob middle", recHeadLen + n/2}, {"blob end", recHeadLen + n - 1},
		{"footer checksum", recLen - recFootLen}, {"footer length", recLen - 8}, {"footer tag", recLen - 1},
	} {
		if ver, err := flipLoad(newest + r.at); err == nil {
			t.Fatalf("%s flip in the newest record: Load = v%d, want a corruption error", r.name, ver)
		}
		if ver, err := flipLoad(newest - recLen + r.at); err != nil || ver != 3 {
			t.Fatalf("%s flip in an older record: Load = v%d err=%v, want v3", r.name, ver, err)
		}
	}
}

// TestFileStateStoreRejectsOldFormat: a file in the version-prefixed
// format the store used to write is refused by name, never decoded or
// appended to.
func TestFileStateStoreRejectsOldFormat(t *testing.T) {
	s := newFileStore(t)
	old := binary.LittleEndian.AppendUint64(nil, 7)
	old = append(old, logBlob(7, 64)...)
	writeLog(t, s, "s-1", old)
	if _, _, _, err := s.Load("s-1"); err == nil || !strings.Contains(err.Error(), "old-format") {
		t.Fatalf("Load of an old-format file: err = %v, want one naming the old format", err)
	}
	if err := s.Put("s-1", 8, []byte("new")); err == nil {
		t.Fatal("Put appended to an old-format file")
	}
	if got := readLog(t, s, "s-1"); !bytes.Equal(got, old) {
		t.Fatal("Put modified an old-format file")
	}
}

// TestFileStateStoreTwoInstancesRace points two stores at one directory —
// flock locks belong to the open file description, so they behave as two
// processes — and races interleaved and stale versions. Once a Put of
// version v returns, no store may ever load anything older.
func TestFileStateStoreTwoInstancesRace(t *testing.T) {
	dir := t.TempDir()
	var stores [2]*FileStateStore
	for i := range stores {
		s, err := NewFileStateStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	const id, top, n = "shared", 400, 64
	var wg sync.WaitGroup
	for w, s := range stores {
		wg.Add(1)
		go func(w int, s *FileStateStore) {
			defer wg.Done()
			for v := w; v < top; v += 2 {
				for _, put := range []int{v, v - 5} { // a fresh write, then a stale one
					if put < 0 {
						continue
					}
					if err := s.Put(id, int64(put), logBlob(put, n)); err != nil {
						t.Errorf("store %d Put v%d: %v", w, put, err)
						return
					}
					blob, ver, ok, err := stores[1-w].Load(id)
					if err != nil || !ok || ver < int64(v) || !bytes.Equal(blob, logBlob(int(ver), n)) {
						t.Errorf("after store %d put v%d: other store loaded ver %d ok=%v err=%v", w, v, ver, ok, err)
						return
					}
				}
			}
		}(w, s)
	}
	wg.Wait()
	for _, s := range stores {
		wantLoad(t, s, id, top-1, n, "final")
	}
}

// TestFileStateStoreCompactionBoundsLog runs long enough for many
// compactions with snapshot sizes that change between rounds: the log stays
// within logCompactFactor times its newest record and no stray file is
// left beside it.
func TestFileStateStoreCompactionBoundsLog(t *testing.T) {
	s := newFileStore(t)
	sizes := []int{260, 9500, 40, 1000, 260, 260, 260}
	compactions := 0
	for v := 1; v <= 300; v++ {
		n := sizes[v%len(sizes)]
		putVersions(t, s, "s-1", v, v, n)
		size := int64(len(readLog(t, s, "s-1")))
		rec := int64(n + recOverhead)
		if size > logCompactFactor*rec {
			t.Fatalf("v%d: log is %d bytes, over %d× its %d-byte newest record", v, size, logCompactFactor, rec)
		}
		if v > 1 && size == logSigLen+rec {
			compactions++
		}
		wantLoad(t, s, "s-1", v, n, fmt.Sprintf("v%d", v))
	}
	if compactions < 10 {
		t.Fatalf("only %d compactions in 300 puts", compactions)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "s-1.session" {
		t.Fatalf("state dir holds %v, want only s-1.session", entries)
	}
}

// FuzzFileStateStoreLoad feeds arbitrary bytes as a session log. Load must
// not panic, and any blob it returns must be framed by a record whose
// checksum verifies. A Put over the same bytes either fails or leaves a log
// that loads exactly what was put.
func FuzzFileStateStoreLoad(f *testing.F) {
	valid := append([]byte(logMagic), appendRecord(nil, 1, []byte("one"))...)
	valid = appendRecord(valid, 2, []byte("two"))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:5])
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 3), "old"...))
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), valid...), recHeadTag...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newFileStore(t)
		writeLog(t, s, "f", data)
		blob, ver, ok, err := s.Load("f")
		if err == nil && ok {
			if !bytes.HasPrefix(data, []byte(logMagic)) || !bytes.Contains(data, appendRecord(nil, ver, blob)) {
				t.Fatalf("Load returned ver %d blob %q that no verified record frames", ver, blob)
			}
		}
		if s.Put("f", math.MaxInt64, []byte("new")) != nil {
			return
		}
		blob, ver, ok, err = s.Load("f")
		if err != nil || !ok || ver != math.MaxInt64 || string(blob) != "new" {
			t.Fatalf("after a successful Put: Load = ver %d blob %q ok=%v err=%v", ver, blob, ok, err)
		}
	})
}

var benchBlob []byte

// Snapshot sizes of the two serving paths: a stream session's snapshot
// carries its window-assembly lineage, a votes session's does not.
var benchSnapshotSizes = []struct {
	name string
	n    int
}{{"stream-9500B", 9500}, {"votes-260B", 260}}

func BenchmarkFileStateStorePut(b *testing.B) {
	for _, sz := range benchSnapshotSizes {
		b.Run(sz.name, func(b *testing.B) {
			s := newFileStore(b)
			blob := logBlob(1, sz.n)
			b.SetBytes(int64(sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put("s-1", int64(i), blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFileStateStoreLoad(b *testing.B) {
	for _, sz := range benchSnapshotSizes {
		b.Run(sz.name, func(b *testing.B) {
			s := newFileStore(b)
			for v := 0; v < logCompactFactor/2; v++ {
				if err := s.Put("s-1", int64(v), logBlob(v, sz.n)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, _, ok, err := s.Load("s-1")
				if err != nil || !ok {
					b.Fatalf("Load: ok=%v err=%v", ok, err)
				}
				benchBlob = blob
			}
		})
	}
}
