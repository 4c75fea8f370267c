package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testStores(t *testing.T) map[string]StateStore {
	t.Helper()
	fs, err := NewFileStateStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]StateStore{"mem": NewMemStateStore(), "file": fs}
}

func TestStateStoreVersioning(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			if _, _, ok, err := s.Load("absent"); ok || err != nil {
				t.Fatalf("Load(absent) = ok=%v err=%v", ok, err)
			}
			if err := s.Put("a", 3, []byte("v3")); err != nil {
				t.Fatal(err)
			}
			// A newer write replaces.
			if err := s.Put("a", 5, []byte("v5")); err != nil {
				t.Fatal(err)
			}
			// A stale write from a dead previous owner is silently dropped.
			if err := s.Put("a", 4, []byte("v4-stale")); err != nil {
				t.Fatal(err)
			}
			// An equal-version rewrite (deterministic replay of the same round)
			// is accepted.
			if err := s.Put("a", 5, []byte("v5-replay")); err != nil {
				t.Fatal(err)
			}
			blob, ver, ok, err := s.Load("a")
			if err != nil || !ok {
				t.Fatalf("Load: ok=%v err=%v", ok, err)
			}
			if ver != 5 || !bytes.Equal(blob, []byte("v5-replay")) {
				t.Fatalf("Load = ver %d blob %q, want 5 / v5-replay", ver, blob)
			}
			if err := s.Put("a", -1, nil); err == nil {
				t.Fatal("Put accepted a negative version")
			}
			if err := s.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if _, _, ok, _ := s.Load("a"); ok {
				t.Fatal("Load found a deleted session")
			}
			if err := s.Delete("a"); err != nil {
				t.Fatal("Delete of an absent session must be a no-op")
			}
		})
	}
}

func TestStateStoreIsolatesCallerBuffers(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			buf := []byte("original")
			if err := s.Put("a", 1, buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			got, _, _, err := s.Load("a")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("original")) {
				t.Fatalf("stored blob aliased the caller's buffer: %q", got)
			}
			got[0] = 'Y'
			again, _, _, _ := s.Load("a")
			if !bytes.Equal(again, []byte("original")) {
				t.Fatal("Load returned a shared buffer")
			}
		})
	}
}

func TestFileStateStoreEscapesHostileIDs(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []string{"../../etc/passwd", "a/b", "", ".hidden", "a b"}
	for i, id := range hostile {
		if err := s.Put(id, 1, []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatalf("Put(%q): %v", id, err)
		}
		blob, _, ok, err := s.Load(id)
		if err != nil || !ok || !bytes.Equal(blob, []byte(fmt.Sprintf("blob-%d", i))) {
			t.Fatalf("Load(%q) = %q ok=%v err=%v", id, blob, ok, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "..") || strings.ContainsAny(e.Name(), "/ ") {
			t.Fatalf("hostile id leaked into filename %q", e.Name())
		}
		if !strings.HasSuffix(e.Name(), ".session") {
			t.Fatalf("unexpected leftover file %q (temp file not cleaned?)", e.Name())
		}
	}
	// The parent dir must not have been escaped into.
	if _, err := os.Stat(filepath.Join(dir, "..", "etc")); err == nil {
		t.Fatal("hostile id escaped the store directory")
	}
}

// TestFileStateStoreNamesAreInjective: an escaped id must never land on
// the file of an id kept as is — "a.b" escapes to x612e62, which is also a
// safe id in its own right.
func TestFileStateStoreNamesAreInjective(t *testing.T) {
	s, err := NewFileStateStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a.b", "x612e62", "", "x", "x78", "xx", "s-1"}
	seen := map[string]string{}
	for i, id := range ids {
		p := s.path(id)
		if other, dup := seen[p]; dup {
			t.Fatalf("ids %q and %q share the file %s", other, id, p)
		}
		seen[p] = id
		if err := s.Put(id, 1, []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatalf("Put(%q): %v", id, err)
		}
	}
	for i, id := range ids {
		blob, _, ok, err := s.Load(id)
		if err != nil || !ok || string(blob) != fmt.Sprintf("blob-%d", i) {
			t.Fatalf("Load(%q) = %q ok=%v err=%v, want blob-%d", id, blob, ok, err, i)
		}
	}
}

func TestStateStoreConcurrentWriters(t *testing.T) {
	for name, s := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for v := 1; v <= 20; v++ {
						_ = s.Put("shared", int64(v), []byte(fmt.Sprintf("w%d-v%d", w, v)))
					}
				}(w)
			}
			wg.Wait()
			blob, ver, ok, err := s.Load("shared")
			if err != nil || !ok {
				t.Fatalf("Load: ok=%v err=%v", ok, err)
			}
			if ver != 20 {
				t.Fatalf("final version %d, want 20", ver)
			}
			if !strings.HasSuffix(string(blob), "-v20") {
				t.Fatalf("final blob %q is not a version-20 write", blob)
			}
		})
	}
}
