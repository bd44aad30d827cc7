package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// The paper's model is fail-stop: a crashed processor never returns, and
// n > 2f replicas make that survivable. Real deployments want the stronger
// crash-recovery behaviour: a replica that restarts should rejoin with its
// last adopted state rather than count against the failure budget forever.
// This file adds that as an engineering extension: a write-ahead log of
// adopted (register, tag, value) records, replayed on start.
//
// Recovery preserves safety because the log holds exactly the state the
// replica acknowledged: rejoining with it is indistinguishable (to the
// protocol) from the replica having been merely slow. Records are synced
// to disk before the acknowledgement is sent, so an acked update is never lost.
//
// Log format (v2): an 8-byte magic header, then records framed as
// [4-byte BE body length][4-byte BE IEEE CRC32 of body][body], then — while
// the log is open or after a crash, never after a graceful close — a tail
// of zero bytes. The tail is there so that a commit changes no filesystem
// metadata: the persister keeps its own append offset, writes each batch
// with one positional write into bytes it has already zero-filled, and
// makes it durable with a data-integrity sync (datasync), which unlike an
// append's fsync does not have to commit the filesystem journal. The batch
// that crosses the tail's end carries the next stretch of zeros in the same
// write, so only that commit moves the file size.
//
// Replay therefore ends at the first all-zero header (no record has an
// empty body), and the checksum separates three outcomes: a record cut
// short by the file's end is a torn tail (crash mid-append); a full-length
// record whose checksum fails is a torn tail too iff one of its
// sector-aligned pieces is all zero — every write lands on zeros and a
// sector reaches the disk whole or not at all, so that is what a write that
// never finished looks like; any other mismatch is bit-rot — acknowledged
// state can no longer be trusted, so the open fails with ErrLogCorrupt
// instead of silently rejoining with wrong data. So does a frame that only
// looks torn because its length field, which the checksum does not cover,
// is damaged (lengthDamaged). A torn tail is truncated away. A non-empty
// file without the magic header is not a log: its open fails with
// ErrLogCorrupt.

// persistMagic identifies a v2 log.
const persistMagic = "\xABDWAL2\x00\x00"

const (
	persistCompactThreshold = 4096

	// The zero tail grows by persistGrowMin the first time, then by twice
	// as much each time up to persistGrowMax: a short-lived log (a test, a
	// benchmark set-up of 64 small registers) never writes more than 64 KiB
	// of zeros, a busy one extends — the one commit in hundreds that pays
	// for a journal commit — once per MiB.
	persistGrowMin = 64 << 10
	persistGrowMax = 1 << 20

	// sectorSize is the unit a disk writes atomically, the granularity of
	// the torn-write rule. 512 is the smallest in use; on a 4 KiB-sector
	// device every 4 KiB tear is also a run of 512-byte ones.
	sectorSize = 512
)

// ErrLogCorrupt reports a persistence log whose body bytes contradict a
// record checksum — bit-rot or truncation-in-the-middle, as opposed to the
// recoverable torn tail of a crashed append.
var ErrLogCorrupt = errors.New("core: persistence log corrupt (checksum mismatch)")

// persister is the append-only adoption log.
type persister struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	sync  bool
	delay time.Duration // extra stall per fsync (WithFsyncDelay)
	n     int           // records since last compaction
	syncs atomic.Int64  // syncs issued, one per batch append

	off    int64  // end of the last record: where the next batch goes
	zeroed int64  // end of the file: [off, zeroed) is the zero tail
	grow   int64  // how many zeros the next extension adds
	buf    []byte // batch encoding scratch, reused across appends
	failed error  // sticky: the write or sync error that ended appending
}

// record is one logged adoption.
type record struct {
	reg string
	tag Tag
	val types.Value
}

// encodeRecord appends a record framed for the v2 log — length, CRC32,
// body — to b, encoding the body (appendEntry, as in a message) in place.
func encodeRecord(b []byte, r record) []byte {
	start := len(b)
	b = appendEntry(append(b, 0, 0, 0, 0, 0, 0, 0, 0), r.reg, r.tag, r.val)
	body := b[start+8:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(body))
	return b
}

// decodeRecord decodes the record body at the front of b and reports how
// many bytes it took. The record's value is a view of b.
func decodeRecord(b []byte) (rec record, n int, err error) {
	r := wire.NewReader(b)
	if rec.reg, rec.tag, rec.val, err = readEntry(r); err != nil {
		return record{}, 0, err
	}
	return rec, len(b) - r.Len(), nil
}

// lengthDamaged reports whether b, the bytes behind a frame header carrying
// checksum crc, begin with a whole record body of that checksum. A frame
// that failed with such a body in it — cut short by the file's end, or its
// checksum wrong over the length it claims — failed because its length
// field, which the checksum does not cover, is damaged: not a torn write.
func lengthDamaged(b []byte, crc uint32) bool {
	_, n, err := decodeRecord(b)
	return err == nil && crc32.ChecksumIEEE(b[:n]) == crc
}

// tornOverZeros reports whether frame — a framed record read from file
// offset off — has a sector-aligned piece that is all zero: the mark of a
// write over the zero tail of which some sectors never reached the disk.
func tornOverZeros(off int64, frame []byte) bool {
	for len(frame) > 0 {
		n := min(len(frame), sectorSize-int(off%sectorSize))
		if allZero(frame[:n]) {
			return true
		}
		frame, off = frame[n:], off+int64(n)
	}
	return false
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// loadLog reads every intact record from the log at path. It reports
// cleanLen — the byte offset after the last intact record, i.e. where a
// zero or torn tail begins (cleanLen == file size when the log is whole; 0
// for a missing or empty file). A non-empty file that does not start with
// the magic header, and a checksum mismatch that is not a torn write,
// return ErrLogCorrupt.
func loadLog(path string) (recs []record, cleanLen int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("core: open persistence log: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)

	magic, _ := br.Peek(len(persistMagic))
	switch {
	case len(magic) == 0:
		return nil, 0, nil
	case string(magic) != persistMagic:
		return nil, 0, ErrLogCorrupt
	}
	cleanLen = int64(len(magic))
	br.Discard(len(magic)) // just peeked: cannot fail

	header := make([]byte, 8) // length + crc
	var frame []byte          // one framed record, reused: what is kept is copied out
	for {
		if _, err := io.ReadFull(br, header); err != nil || allZero(header) {
			break // EOF, a torn header or the zero tail
		}
		bodyLen := binary.BigEndian.Uint32(header[:4])
		if bodyLen > 64<<20 {
			// Not a tear: a write that lost sectors over zeros can only
			// shrink a length. The log is damaged.
			return nil, cleanLen, ErrLogCorrupt
		}
		frame = append(append(frame[:0], header...), make([]byte, bodyLen)...)
		body := frame[len(header):]
		n, err := io.ReadFull(br, body)
		crc := binary.BigEndian.Uint32(header[4:8])
		if err != nil || crc32.ChecksumIEEE(body) != crc {
			// Not an intact record. It is a torn tail — the record never
			// finished hitting the disk — if the file's end cut it short
			// or a sector of it is still zero, and the log is damaged
			// otherwise.
			if (err != nil || tornOverZeros(cleanLen, frame)) && !lengthDamaged(body[:n], crc) {
				break
			}
			return nil, cleanLen, ErrLogCorrupt
		}
		rec, _, err := decodeRecord(body)
		if err != nil {
			// The checksum passed but the body does not decode: the
			// record was written damaged. Same verdict as bit-rot.
			return nil, cleanLen, ErrLogCorrupt
		}
		rec.val = rec.val.Clone() // a view of frame, which the next record overwrites
		recs = append(recs, rec)
		cleanLen += int64(len(frame))
	}
	return recs, cleanLen, nil
}

// writeLog writes a fresh v2 log holding recs and tail zero bytes to a
// temporary file, fsyncs it and renames it over path. It returns the new
// log's descriptor, still open, and the offset its records end at. On
// error the log at path, if any, is as it was. The rename is durable once
// the caller has synced the directory (syncDir).
func writeLog(path string, recs []record, tail int64) (*os.File, int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("core: persistence rewrite: %w", err)
	}
	fail := func(what string, err error) (*os.File, int64, error) {
		f.Close()
		os.Remove(tmp)
		return nil, 0, fmt.Errorf("core: persistence rewrite %s: %w", what, err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	off, _ := w.WriteString(persistMagic)
	var frame []byte
	for _, rec := range recs {
		frame = encodeRecord(frame[:0], rec)
		n, _ := w.Write(frame) // a bufio.Writer's error is sticky: Flush reports it
		off += n
	}
	w.Write(make([]byte, tail))
	if err := w.Flush(); err != nil {
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail("rename", err)
	}
	return f, int64(off), nil
}

// syncDir fsyncs the directory holding path, which is what makes a rename
// in it survive a power loss: without it the name can come back pointing at
// the file it pointed at before. Windows cannot sync a directory handle and
// persists a rename's metadata itself.
func syncDir(path string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("core: persistence sync directory: %w", err)
	}
	return nil
}

// openPersister opens (or creates) the log at path and returns the
// replayed records: a new or empty file gets the magic header; a log is cut
// back to its last intact record — dropping the zero tail and whatever a
// crash tore — so later appends land on a clean boundary. A file without
// the magic header and mid-log corruption surface as ErrLogCorrupt, with
// the file left as it was. Nothing is zero-filled here: the first append
// does that.
func openPersister(path string, syncEach bool) (*persister, []record, error) {
	recs, cleanLen, err := loadLog(path)
	if err != nil {
		return nil, nil, err
	}
	var f *os.File
	if cleanLen > 0 {
		if f, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
			return nil, nil, fmt.Errorf("core: open persistence log: %w", err)
		}
		if err = f.Truncate(cleanLen); err != nil {
			err = fmt.Errorf("core: persistence truncate torn tail: %w", err)
		}
	} else {
		// New or empty: write the magic header.
		if f, cleanLen, err = writeLog(path, nil, 0); err != nil {
			return nil, nil, err
		}
		err = syncDir(path)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	p := &persister{f: f, path: path, sync: syncEach, n: len(recs),
		off: cleanLen, zeroed: cleanLen, grow: persistGrowMin}
	return p, recs, nil
}

// appendBatch logs a group of adoptions with a single write and a single
// sync. This is the group-commit amortization: every record in recs is
// durable once appendBatch returns, at the disk cost of one flush no
// matter how many records rode along. A log that has failed a write or a
// sync stays failed: what the file holds past off is unknown from then on,
// and a sync that succeeds after one that failed proves nothing about the
// pages in between. The next open sorts it out by replay.
func (p *persister) appendBatch(recs []record) error {
	if len(recs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil {
		return p.failed
	}
	buf := p.buf[:0]
	for _, rec := range recs {
		buf = encodeRecord(buf, rec)
	}
	end := p.off + int64(len(buf))
	zeroed, grow := p.zeroed, p.grow
	if end > zeroed {
		// The batch crosses the end of the zero tail: it carries the next
		// stretch of zeros in the same write, in the scratch's own spare
		// capacity, which the scratch keeps for the next batch.
		n := len(buf)
		buf = slices.Grow(buf, int(grow))[:n+int(grow)]
		clear(buf[n:])
		zeroed, grow = end+grow, min(2*grow, persistGrowMax)
	}
	p.buf = buf
	if _, err := p.f.WriteAt(buf, p.off); err != nil {
		p.failed = fmt.Errorf("core: persistence batch append: %w", err)
		return p.failed
	}
	if p.sync {
		if err := datasync(p.f); err != nil {
			p.failed = fmt.Errorf("core: persistence sync: %w", err)
			return p.failed
		}
		p.syncs.Add(1)
		if p.delay > 0 {
			time.Sleep(p.delay)
		}
	}
	p.off, p.zeroed, p.grow = end, zeroed, grow
	p.n += len(recs)
	return nil
}

// recordCount reports records appended since the last compaction.
func (p *persister) recordCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// compact rewrites the log to recs, one record per register — a snapshot
// of the replica's store taken with commits excluded (Replica.compactLocked).
// The rewrite keeps as long a zero tail as the old log had left, so it never
// grows the file and the next commit still lands on zeros. If the rewrite
// fails, the old log stays in use, untouched.
func (p *persister) compact(recs []record) error {
	p.mu.Lock()
	defer p.mu.Unlock()

	tail := p.zeroed - p.off
	f, off, err := writeLog(p.path, recs, tail)
	if err != nil {
		return err
	}
	// The name leads to the new log now, so that is the one to append to:
	// through the descriptor it was written with, not a second open that
	// could fail and leave commits going to a file no name reaches.
	_ = p.f.Close() // all of it that matters is in the new log
	p.f, p.off, p.zeroed, p.n = f, off, off+tail, 0
	if err := syncDir(p.path); err != nil {
		p.failed = err // which log a power loss would bring back is unknown
		return err
	}
	return nil
}

// close truncates the zero tail away — a cleanly closed log ends at its
// last record — and closes the log.
func (p *persister) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.f.Truncate(p.off)
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewPersistentReplica creates a replica whose adopted state survives
// restarts: it replays the log at path and appends (with fsync) on every
// adoption. Restarting a replica with its old log is safe — the protocol
// cannot distinguish it from a slow replica — so a deployment gets
// crash-recovery on top of the paper's fail-stop tolerance. Every record
// carries a CRC32; a log with a damaged record fails the open with
// ErrLogCorrupt rather than rejoin with silently wrong state (torn tails
// from a crash mid-append are still recovered from, as before).
func NewPersistentReplica(id types.NodeID, ep transport.Endpoint, path string, opts ...ReplicaOption) (*Replica, error) {
	p, recs, err := openPersister(path, true)
	if err != nil {
		return nil, err
	}

	r := NewReplica(id, ep, opts...)
	r.persist = p
	p.delay = r.fsyncDelay
	// Replay through the normal adoption rule so out-of-order log records
	// (possible after interleaved compactions) resolve to the newest.
	for _, rec := range recs {
		cur := r.regs[rec.reg]
		cmp, err := rec.tag.compare(cur.tag)
		if err != nil {
			continue // an unorderable pair of tags in the log: skip
		}
		if cmp > 0 {
			r.regs[rec.reg] = regEntry{tag: rec.tag, val: rec.val}
		}
	}
	return r, nil
}
