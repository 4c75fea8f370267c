package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// FileStateStore is a StateStore backed by a directory holding one
// append-only record log per session — the multi-process quickstart
// transport (N origin-serve replicas pointed at one -state-dir behind an
// origin-router).
//
// A log is an 8-byte signature followed by records. A record is a header
// (tag, blob length, version), the snapshot blob and a footer (CRC-32C of
// header and blob, blob length, tag). The newest record is always the one
// that ends at EOF, so a reader finds it from the footer without a scan.
//
// Every operation holds a flock on the session's file: shared for Load,
// exclusive for Put. Writers therefore serialise per session whether they
// share a process or not, which is what makes Put's version check sound
// across replicas. Put reads only the newest record's framing (never its
// blob) to drop a stale write, then appends the new record with one
// positioned write; if that write fails or comes up short, Put truncates
// the file back to its committed size before it unlocks.
//
// Torn tail versus corruption: a record cut short at EOF is a write the
// process died in the middle of. It was never committed, so it is not an
// error: Load returns the record before it and the next Put truncates the
// cut before appending. A complete record whose checksum or framing does
// not verify is corruption; Load reports it and returns nothing.
//
// Compaction: when a log grows past logCompactFactor times its newest
// record, Put copies that record (still in hand) to the front of the log
// and truncates behind it. The record stays intact at EOF until the
// truncate, so a crash mid-compaction loses nothing.
//
// Nothing is fsynced: a record reaches the kernel before Put returns, so
// it survives the death of the process, not an OS crash or power loss.
type FileStateStore struct {
	dir string
}

// Session log layout. logMagic read as a little-endian int64 is negative,
// so it can never open a file in the old format (an 8-byte non-negative
// version followed by the blob); such a file is rejected, never decoded.
const (
	logMagic    = "OSLOG1\x00\xff"
	recHeadTag  = "REC{"
	recFootTag  = "}REC"
	recHeadLen  = 16 // tag, blob length u32, version u64
	recFootLen  = 12 // CRC-32C u32, blob length u32, tag
	recOverhead = recHeadLen + recFootLen
	logSigLen   = int64(len(logMagic))
	maxLogBlob  = math.MaxUint32 // blob lengths are stored as u32

	// logCompactFactor bounds a log at this multiple of its newest record.
	logCompactFactor = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putBufs recycles Put's record buffers (one snapshot each).
var putBufs = sync.Pool{New: func() any { return new([]byte) }}

// NewFileStateStore opens (creating if needed) a directory-backed store.
func NewFileStateStore(dir string) (*FileStateStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: state dir: %w", err)
	}
	return &FileStateStore{dir: dir}, nil
}

// path maps a session id onto a filename. Ids made only of safe characters
// keep their name; any other id — and any id starting with the escape
// prefix 'x' — is hex-escaped behind that prefix. A hostile id therefore
// cannot traverse out of the directory, and no escaped name can equal a
// kept one, so distinct ids never share a file.
func (s *FileStateStore) path(id string) string {
	safe := id != "" && id[0] != 'x'
	for i := 0; safe && i < len(id); i++ {
		c := id[i]
		safe = c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_'
	}
	name := id
	if !safe {
		name = fmt.Sprintf("x%x", id)
	}
	return filepath.Join(s.dir, name+".session")
}

// Load implements StateStore.
func (s *FileStateStore) Load(id string) ([]byte, int64, bool, error) {
	f, err := os.Open(s.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("fleet: state load %q: %w", id, err)
	}
	defer f.Close()
	blob, ver, ok, err := loadLog(f)
	if err != nil {
		return nil, 0, false, fmt.Errorf("fleet: state load %q: %w", id, err)
	}
	return blob, ver, ok, nil
}

// loadLog returns the newest committed record of the log open in f.
func loadLog(f *os.File) ([]byte, int64, bool, error) {
	if err := flock(f, false); err != nil {
		return nil, 0, false, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, false, err
	}
	off, end, err := logTail(f, size)
	if err != nil || off == end {
		return nil, 0, false, err
	}
	rec := make([]byte, end-off)
	if _, err := f.ReadAt(rec, off); err != nil {
		return nil, 0, false, err
	}
	ver, blob, err := openRecord(rec)
	if err != nil {
		return nil, 0, false, err
	}
	return blob, ver, true, nil
}

// Put implements StateStore.
func (s *FileStateStore) Put(id string, ver int64, blob []byte) error {
	if ver < 0 {
		return fmt.Errorf("fleet: negative state version %d", ver)
	}
	if int64(len(blob)) > maxLogBlob {
		return fmt.Errorf("fleet: state put %q: %d-byte snapshot too large", id, len(blob))
	}
	f, err := os.OpenFile(s.path(id), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return fmt.Errorf("fleet: state put %q: %w", id, err)
	}
	err = appendLog(f, ver, blob)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fleet: state put %q: %w", id, err)
	}
	return nil
}

// appendLog appends one record to the log open in f unless the log already
// holds a newer version, then compacts the log when it has grown too long.
func appendLog(f *os.File, ver int64, blob []byte) error {
	if err := flock(f, true); err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	off, end, err := logTail(f, size)
	if err != nil {
		return err
	}
	if off < end {
		var head [recHeadLen]byte
		if _, err := f.ReadAt(head[:], off); err != nil {
			return err
		}
		cur := int64(binary.LittleEndian.Uint64(head[8:]))
		if !headMatches(head[:], end-off-recOverhead) || cur < 0 {
			return corruptf("newest record header does not match its footer")
		}
		if ver < cur {
			return nil // stale write from a previous owner
		}
	}
	if end < size {
		// Drop a record cut short before appending behind it: bytes left
		// past the new record would read as corruption.
		if err := f.Truncate(end); err != nil {
			return err
		}
	}

	bp := putBufs.Get().(*[]byte)
	defer putBufs.Put(bp)
	buf := (*bp)[:0]
	if end == 0 {
		buf = append(buf, logMagic...)
	}
	recAt := len(buf)
	buf = appendRecord(buf, ver, blob)
	*bp = buf
	if _, err := f.WriteAt(buf, end); err != nil {
		if terr := f.Truncate(end); terr != nil {
			return errors.Join(err, terr)
		}
		return err
	}

	// Compact: the record just written is the only one a reader needs.
	// The copy cannot overlap it: past the trigger the record starts more
	// than seven of its own lengths into the log.
	rec := buf[recAt:]
	if logLen := end + int64(len(buf)); logLen > logCompactFactor*int64(len(rec)) {
		// A failed compaction leaves the log valid (the new record is
		// intact at EOF) and the next Put tries again, so the write
		// stands either way.
		if _, err := f.WriteAt(rec, logSigLen); err == nil {
			_ = f.Truncate(logSigLen + int64(len(rec)))
		}
	}
	return nil
}

// Delete implements StateStore.
func (s *FileStateStore) Delete(id string) error {
	err := os.Remove(s.path(id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("fleet: state delete %q: %w", id, err)
	}
	return nil
}

// appendRecord appends the framed record for one snapshot to dst.
func appendRecord(dst []byte, ver int64, blob []byte) []byte {
	start := len(dst)
	dst = append(dst, recHeadTag...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ver))
	dst = append(dst, blob...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
	return append(dst, recFootTag...)
}

// headMatches reports whether head opens a record with an n-byte blob.
func headMatches(head []byte, n int64) bool {
	return string(head[:4]) == recHeadTag && int64(binary.LittleEndian.Uint32(head[4:])) == n
}

// openRecord verifies one whole record and returns its version and blob.
func openRecord(rec []byte) (int64, []byte, error) {
	if len(rec) < recOverhead || string(rec[len(rec)-4:]) != recFootTag {
		return 0, nil, corruptf("record framing broken")
	}
	foot := rec[len(rec)-recFootLen:]
	n := int64(len(rec) - recOverhead)
	if !headMatches(rec, n) || int64(binary.LittleEndian.Uint32(foot[4:])) != n {
		return 0, nil, corruptf("record header does not match its footer")
	}
	body := rec[:len(rec)-recFootLen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(foot) {
		return 0, nil, corruptf("record checksum mismatch")
	}
	ver := int64(binary.LittleEndian.Uint64(rec[8:]))
	if ver < 0 {
		return 0, nil, corruptf("negative record version")
	}
	return ver, body[recHeadLen:], nil
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("corrupt session log: "+format, args...)
}

// logTail locates the newest committed record of a log of the given size
// and returns its extent [off, end). end is the log's committed size; bytes
// past it are an append cut short. off == end when the log holds no
// committed record. A record whose footer ends the log was written whole,
// so it is located from that footer alone and any mismatch its reader
// finds is corruption; only a torn tail costs a read of the whole file.
func logTail(r io.ReaderAt, size int64) (off, end int64, err error) {
	var buf [recFootLen]byte
	sig := buf[:min(size, logSigLen)]
	if _, err := r.ReadAt(sig, 0); err != nil {
		return 0, 0, err
	}
	if string(sig) != logMagic[:len(sig)] {
		if len(sig) == len(logMagic) && int64(binary.LittleEndian.Uint64(sig)) >= 0 {
			return 0, 0, errors.New("old-format session file (8-byte version, then the snapshot); not decoded")
		}
		return 0, 0, errors.New("not a session log")
	}
	switch {
	case size < logSigLen:
		return 0, 0, nil // the first append cut short inside the signature
	case size == logSigLen:
		return size, size, nil
	}
	if size >= logSigLen+recOverhead {
		foot := buf[:]
		if _, err := r.ReadAt(foot, size-recFootLen); err != nil {
			return 0, 0, err
		}
		if string(foot[8:]) == recFootTag {
			off := size - recOverhead - int64(binary.LittleEndian.Uint32(foot[4:]))
			if off < logSigLen {
				return 0, 0, corruptf("newest record's length overruns the log")
			}
			return off, size, nil
		}
	}
	data := make([]byte, size)
	if _, err := r.ReadAt(data, 0); err != nil {
		return 0, 0, err
	}
	return tornTail(data)
}

// tornTail handles a log whose last bytes are not a record footer: it
// finds the newest intact record and requires everything after it to be
// the start of one record, cut short.
func tornTail(data []byte) (off, end int64, err error) {
	off, end = logSigLen, logSigLen
	for lim := len(data); ; {
		i := bytes.LastIndex(data[:lim], []byte(recFootTag))
		if i < int(logSigLen) {
			break
		}
		lim = i // the tag cannot overlap itself
		e := int64(i + len(recFootTag))
		n := int64(binary.LittleEndian.Uint32(data[e-8:]))
		o := e - recOverhead - n
		if o < logSigLen || !headMatches(data[o:], n) {
			continue // tag bytes inside a blob, not a footer
		}
		if _, _, err := openRecord(data[o:e]); err != nil {
			return 0, 0, err
		}
		off, end = o, e
		break
	}
	if !cutShort(data[end:]) {
		return 0, 0, corruptf("bytes after the newest record are not a record cut short")
	}
	return off, end, nil
}

// cutShort reports whether b is a proper, non-empty prefix of a record:
// what an append interrupted part-way leaves at EOF.
func cutShort(b []byte) bool {
	switch {
	case len(b) == 0:
		return false
	case len(b) <= len(recHeadTag):
		return recHeadTag[:len(b)] == string(b)
	case string(b[:4]) != recHeadTag:
		return false
	case len(b) < 8:
		return true
	}
	return int64(len(b)) < recOverhead+int64(binary.LittleEndian.Uint32(b[4:]))
}
