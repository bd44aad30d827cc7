package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
// protocol) from the replica having been merely slow. Records are fsynced
// before the acknowledgement is sent, so an acked update is never lost.
//
// Log format (v2): an 8-byte magic header, then records framed as
// [4-byte BE body length][4-byte BE IEEE CRC32 of body][body]. The
// checksum separates the two failure modes a replay can meet: a record cut
// short by the file's end is a torn tail (crash mid-append) and is safely
// truncated, while a full-length record whose checksum fails is bit-rot —
// acknowledged state can no longer be trusted, so the open fails with
// ErrLogCorrupt instead of silently rejoining with wrong data. v1 logs
// (no magic, no checksums) are detected and atomically rewritten as v2 on
// open.

// persistMagic identifies a v2 log. Its first byte (0xAB) can never start
// a v1 record: v1 began with a 4-byte big-endian length below 64 MiB, so
// its first byte was always small.
const persistMagic = "\xABDWAL2\x00\x00"

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
	syncs atomic.Int64  // fsyncs issued (appends + batch appends)
}

const persistCompactThreshold = 4096

// record is one logged adoption.
type record struct {
	reg string
	tag Tag
	val types.Value
}

// encodeRecordBody serializes a record's payload (the checksummed part).
func encodeRecordBody(r record) []byte {
	body := wire.AppendString(nil, r.reg)
	body = wire.AppendBool(body, r.tag.Valid)
	body = wire.AppendInt(body, r.tag.TS.Seq)
	body = wire.AppendInt(body, int64(r.tag.TS.Writer))
	body = wire.AppendBool(body, r.tag.Bounded)
	body = wire.AppendInt(body, r.tag.Label)
	body = wire.AppendBytes(body, r.val)
	return body
}

// encodeRecord frames a record for the v2 log: length, CRC32, body.
func encodeRecord(r record) []byte {
	body := encodeRecordBody(r)
	out := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(body))
	return append(out, body...)
}

func decodeRecord(body []byte) (record, error) {
	r := wire.NewReader(body)
	var rec record
	rec.reg = r.String()
	rec.tag.Valid = r.Bool()
	rec.tag.TS.Seq = r.Int()
	rec.tag.TS.Writer = types.NodeID(r.Int())
	rec.tag.Bounded = r.Bool()
	rec.tag.Label = r.Int()
	rec.val = r.Bytes()
	if err := r.Err(); err != nil {
		return record{}, err
	}
	return rec, nil
}

// loadLog reads every intact record from the log at path. It reports the
// detected version (0 for a missing or empty file), and cleanLen — the
// byte offset after the last intact record, i.e. where a torn tail begins
// (cleanLen == file size when the log is whole). A v2 checksum mismatch
// on a fully present record returns ErrLogCorrupt.
func loadLog(path string) (recs []record, version int, cleanLen int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: open persistence log: %w", err)
	}
	defer f.Close()

	var magic [8]byte
	_, err = io.ReadFull(f, magic[:])
	switch {
	case errors.Is(err, io.EOF):
		return nil, 0, 0, nil
	case err == nil && bytes.Equal(magic[:], []byte(persistMagic)):
		version = 2
		cleanLen = 8
	default:
		// No magic: a v1 log. Rewind and parse with the legacy framing.
		version = 1
		cleanLen = 0
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, 0, 0, fmt.Errorf("core: persistence seek: %w", err)
		}
	}

	headerLen := 8 // v2: length + crc
	if version == 1 {
		headerLen = 4 // v1: length only
	}
	header := make([]byte, headerLen)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			break // EOF or torn header
		}
		bodyLen := binary.BigEndian.Uint32(header[:4])
		if bodyLen > 64<<20 {
			if version == 2 {
				// A full v2 header with an insane length is not a tear
				// (appends are sequential): the log is damaged.
				return nil, version, cleanLen, ErrLogCorrupt
			}
			break // v1: stop at the anomaly as before
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(f, body); err != nil {
			break // torn tail: the record never finished hitting the disk
		}
		if version == 2 {
			if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(header[4:8]) {
				return nil, version, cleanLen, ErrLogCorrupt
			}
		}
		rec, err := decodeRecord(body)
		if err != nil {
			if version == 2 {
				// The checksum passed but the body does not decode: the
				// record was written damaged. Same verdict as bit-rot.
				return nil, version, cleanLen, ErrLogCorrupt
			}
			break
		}
		recs = append(recs, rec)
		cleanLen += int64(headerLen) + int64(bodyLen)
	}
	return recs, version, cleanLen, nil
}

// writeLogV2 atomically replaces the log at path with a fresh v2 log
// holding recs, via tmp-file + rename.
func writeLogV2(path string, recs []record) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("core: persistence rewrite: %w", err)
	}
	if _, err := f.Write([]byte(persistMagic)); err != nil {
		f.Close()
		return fmt.Errorf("core: persistence rewrite magic: %w", err)
	}
	for _, rec := range recs {
		if _, err := f.Write(encodeRecord(rec)); err != nil {
			f.Close()
			return fmt.Errorf("core: persistence rewrite record: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: persistence rewrite sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: persistence rewrite close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: persistence rewrite rename: %w", err)
	}
	return nil
}

// openPersister opens (or creates) the log at path, normalizing it to the
// v2 format, and returns the replayed records: a new or empty file gets
// the magic header; a v1 log is rewritten in place as v2; a v2 log with a
// torn tail is truncated back to its last intact record so later appends
// land on a clean boundary. Mid-log corruption surfaces as ErrLogCorrupt.
func openPersister(path string, syncEach bool) (*persister, []record, error) {
	recs, version, cleanLen, err := loadLog(path)
	if err != nil {
		return nil, nil, err
	}
	if version != 2 {
		// New, empty, or v1: (re)write as v2.
		if err := writeLogV2(path, recs); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("core: open persistence log: %w", err)
	}
	if version == 2 {
		if st, err := f.Stat(); err == nil && st.Size() > cleanLen {
			if err := f.Truncate(cleanLen); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("core: persistence truncate torn tail: %w", err)
			}
		}
	}
	return &persister{f: f, path: path, sync: syncEach, n: len(recs)}, recs, nil
}

// appendRecord logs one adoption, fsyncing if configured.
func (p *persister) appendRecord(rec record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.f.Write(encodeRecord(rec)); err != nil {
		return fmt.Errorf("core: persistence append: %w", err)
	}
	if p.sync {
		if err := p.f.Sync(); err != nil {
			return fmt.Errorf("core: persistence sync: %w", err)
		}
		p.syncs.Add(1)
		if p.delay > 0 {
			time.Sleep(p.delay)
		}
	}
	p.n++
	return nil
}

// appendBatch logs a group of adoptions with a single write and a single
// fsync. This is the group-commit amortization: every record in recs is
// durable once appendBatch returns, at the disk cost of one flush no
// matter how many records rode along.
func (p *persister) appendBatch(recs []record) error {
	if len(recs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf []byte
	for _, rec := range recs {
		buf = append(buf, encodeRecord(rec)...)
	}
	if _, err := p.f.Write(buf); err != nil {
		return fmt.Errorf("core: persistence batch append: %w", err)
	}
	if p.sync {
		if err := p.f.Sync(); err != nil {
			return fmt.Errorf("core: persistence sync: %w", err)
		}
		p.syncs.Add(1)
		if p.delay > 0 {
			time.Sleep(p.delay)
		}
	}
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
func (p *persister) compact(recs []record) error {
	p.mu.Lock()
	defer p.mu.Unlock()

	if err := writeLogV2(p.path, recs); err != nil {
		return err
	}
	old := p.f
	f, err := os.OpenFile(p.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("core: persistence reopen: %w", err)
	}
	p.f = f
	_ = old.Close()
	p.n = 0
	return nil
}

func (p *persister) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.f.Close()
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
		cmp, err := r.ord.compare(rec.tag, cur.tag)
		if err != nil {
			continue // out-of-window bounded comparison in the log: skip
		}
		if cmp > 0 {
			r.regs[rec.reg] = regEntry{tag: rec.tag, val: rec.val}
		}
	}
	return r, nil
}
