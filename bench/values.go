package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every value the benchmark writes names itself: register, writing client,
// sequence number and a checksum over the whole value. A read is correct
// only if what it returns decodes, carries the register it was read from,
// and names a write the schedule really aimed at that register.
//
// Layout: reg u32 | client u32 | seq u64 | crc u32 | filler to the
// workload's value size. seq is the write's index in the schedule, or
// preloadSeq+reg for the value every register is preloaded with.
const (
	valueHeader = 20
	preloadSeq  = uint64(1) << 40
)

func makeValue(size int, reg uint32, client uint32, seq uint64) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint32(v[0:], reg)
	binary.LittleEndian.PutUint32(v[4:], client)
	binary.LittleEndian.PutUint64(v[8:], seq)
	// Filler that differs between writes, so a replica that mixed two
	// values' bytes cannot pass the checksum by accident.
	x := seq*0x9E3779B97F4A7C15 + 1
	for i := valueHeader; i+8 <= size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	binary.LittleEndian.PutUint32(v[16:], valueCRC(v))
	return v
}

func valueCRC(v []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(v[:16])
	h.Write(v[valueHeader:])
	return h.Sum32()
}

// decodeValue checks a value's shape and checksum and returns its fields.
func decodeValue(v []byte, size int) (reg, client uint32, seq uint64, err error) {
	if size < valueHeader {
		size = valueHeader
	}
	if len(v) != size {
		return 0, 0, 0, fmt.Errorf("value is %d bytes, want %d", len(v), size)
	}
	if got, want := binary.LittleEndian.Uint32(v[16:]), valueCRC(v); got != want {
		return 0, 0, 0, fmt.Errorf("value checksum %08x, computed %08x", got, want)
	}
	return binary.LittleEndian.Uint32(v[0:]), binary.LittleEndian.Uint32(v[4:]), binary.LittleEndian.Uint64(v[8:]), nil
}

// checkRead reports whether val is a legal result of reading register reg:
// nil, the preload, or a value some scheduled write aimed at that register.
func (s *schedule) checkRead(val []byte, reg uint32, size int) error {
	if val == nil {
		return nil
	}
	vreg, _, seq, err := decodeValue(val, size)
	if err != nil {
		return err
	}
	if vreg != reg {
		return fmt.Errorf("register %d returned a value written to register %d", reg, vreg)
	}
	if seq == preloadSeq+uint64(reg) {
		return nil
	}
	if seq >= uint64(len(s.Arrivals)) || s.Arrivals[seq].Kind != opWrite || s.Arrivals[seq].Reg != reg {
		return fmt.Errorf("register %d returned seq %d, which no scheduled write to it carries", reg, seq)
	}
	return nil
}
