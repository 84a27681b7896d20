package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary encoding: a compact varint stream for large traces. Layout:
//
//	magic "BSCT" | version uvarint | nTasks uvarint | nThreads uvarint |
//	duration uvarint | record*
//
// record:
//
//	deltaTime uvarint (vs previous record) | task uvarint | thread uvarint |
//	nPairs uvarint | (type uvarint, value varint)*
//
// Delta-encoded timestamps make long monotone traces small; records must be
// globally time-sorted.
const binaryMagic = "BSCT"

const binaryVersion = 1

// ErrBadMagic reports a stream that is not a binary trace.
var ErrBadMagic = errors.New("trace: bad binary trace magic")

// WriteBinary encodes records (which must be time-sorted) to w.
func WriteBinary(w io.Writer, nTasks, nThreads int, durationNs uint64, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	for _, v := range []uint64{binaryVersion, uint64(nTasks), uint64(nThreads), durationNs, uint64(len(records))} {
		if err := writeUvarint(v); err != nil {
			return err
		}
	}
	var prev uint64
	for i, r := range records {
		if r.TimeNs < prev {
			return fmt.Errorf("trace: record %d out of order (%d < %d)", i, r.TimeNs, prev)
		}
		if err := writeUvarint(r.TimeNs - prev); err != nil {
			return err
		}
		prev = r.TimeNs
		if err := writeUvarint(uint64(r.Task)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(r.Thread)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(r.Pairs))); err != nil {
			return err
		}
		for _, p := range r.Pairs {
			if err := writeUvarint(uint64(p.Type)); err != nil {
				return err
			}
			if err := writeVarint(p.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a binary trace.
func ReadBinary(r io.Reader) (nTasks, nThreads int, durationNs uint64, records []Record, err error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err = io.ReadFull(br, magic); err != nil {
		return 0, 0, 0, nil, err
	}
	if string(magic) != binaryMagic {
		return 0, 0, 0, nil, ErrBadMagic
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if ver != binaryVersion {
		return 0, 0, 0, nil, fmt.Errorf("trace: unsupported binary version %d", ver)
	}
	hdr := make([]uint64, 4)
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(br); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	nTasks, nThreads, durationNs = int(hdr[0]), int(hdr[1]), hdr[2]
	count := hdr[3]
	// Preallocation is an optimization, never a promise to the header: a
	// corrupt (or hostile) stream can claim 2^60 records in a few bytes,
	// and allocating that up front would abort the process before the
	// decode loop ever hits the honest truncation error. Cap the hint and
	// let append grow the slice if the records really are there.
	const maxPrealloc = 1 << 16
	prealloc := count
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	records = make([]Record, 0, prealloc)
	var now uint64
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, 0, 0, nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		now += delta
		task, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		thread, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		nPairs, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		pairCap := nPairs
		if pairCap > 64 {
			pairCap = 64 // same cap-the-hint rule as the record count
		}
		rec := Record{TimeNs: now, Task: int(task), Thread: int(thread),
			Pairs: make([]TypeValue, 0, pairCap)}
		for j := uint64(0); j < nPairs; j++ {
			typ, err := binary.ReadUvarint(br)
			if err != nil {
				return 0, 0, 0, nil, err
			}
			val, err := binary.ReadVarint(br)
			if err != nil {
				return 0, 0, 0, nil, err
			}
			rec.Pairs = append(rec.Pairs, TypeValue{Type: uint32(typ), Value: val})
		}
		records = append(records, rec)
	}
	return nTasks, nThreads, durationNs, records, nil
}
