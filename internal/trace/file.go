package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Source is anything that yields a dynamic instruction stream: the
// synthetic Generator, or a Reader over a recorded trace file. The CPU
// model consumes this interface, so recorded and generated workloads are
// interchangeable.
type Source interface {
	Next(inst *Inst)
}

// File format: a fixed header followed by fixed-size little-endian
// records. The format exists so experiments can be re-run against frozen
// traces (or traces produced by external tools) rather than the generator.
const (
	fileMagic   = "HDTMTRC1"
	recordBytes = 21 // class, dst, src1, src2, taken, pc(8), addr(8)
)

// WriteTrace generates n instructions from the profile and writes them to
// w in the trace file format.
func WriteTrace(w io.Writer, p Profile, n uint64) error {
	gen, err := NewGenerator(p)
	if err != nil {
		return err
	}
	return Record(w, gen, p.Name, n)
}

// Record captures n instructions from any source into the file format.
func Record(w io.Writer, src Source, name string, n uint64) error {
	if n == 0 {
		return errors.New("trace: zero-length trace")
	}
	if len(name) > 255 {
		return fmt.Errorf("trace: name %q too long", name)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], n)
	if _, err := bw.Write(cnt[:]); err != nil {
		return err
	}
	var rec [recordBytes]byte
	var in Inst
	for i := uint64(0); i < n; i++ {
		src.Next(&in)
		rec[0] = byte(in.Class)
		rec[1] = in.Dst
		rec[2] = in.Src1
		rec[3] = in.Src2
		rec[4] = 0
		if in.Taken {
			rec[4] = 1
		}
		binary.LittleEndian.PutUint64(rec[5:13], in.PC)
		binary.LittleEndian.PutUint64(rec[13:21], in.Addr)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Reader replays a recorded trace. When the recording is exhausted it
// loops back to the beginning, matching how the evaluation replays a
// SimPoint sample — a trace is a representative window, not a terminating
// program.
type Reader struct {
	name    string
	count   uint64
	records []byte
	pos     uint64
}

// NewReader loads a trace file fully into memory (records are 21 bytes
// each; a 10 M-instruction trace is ~200 MB — size recordings accordingly).
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(cnt[:])
	if count == 0 {
		return nil, errors.New("trace: empty trace file")
	}
	records := make([]byte, count*recordBytes)
	if _, err := io.ReadFull(br, records); err != nil {
		return nil, fmt.Errorf("trace: reading %d records: %w", count, err)
	}
	for k := uint64(0); k < count; k++ {
		if err := checkRecord(records[k*recordBytes : (k+1)*recordBytes]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", k, err)
		}
	}
	return &Reader{name: string(name), count: count, records: records}, nil
}

// checkRecord rejects a record the CPU model cannot run: a class byte
// outside the defined classes, or a register that is neither an
// architectural register nor NoReg.
func checkRecord(rec []byte) error {
	if c := Class(rec[0]); c >= NumClasses {
		return fmt.Errorf("class %d out of range", rec[0])
	}
	for j, field := range [...]string{"dst", "src1", "src2"} {
		if r := rec[1+j]; r >= NumRegs && r != NoReg {
			return fmt.Errorf("%s register %d is neither < %d nor NoReg", field, r, NumRegs)
		}
	}
	return nil
}

// Name returns the recorded workload name.
func (r *Reader) Name() string { return r.name }

// Count returns the number of recorded instructions (the loop length).
func (r *Reader) Count() uint64 { return r.count }

// Next yields the next instruction, looping at the end of the recording.
func (r *Reader) Next(inst *Inst) {
	rec := r.records[r.pos*recordBytes : (r.pos+1)*recordBytes]
	inst.Class = Class(rec[0])
	inst.Dst = rec[1]
	inst.Src1 = rec[2]
	inst.Src2 = rec[3]
	inst.Taken = rec[4] != 0
	inst.PC = binary.LittleEndian.Uint64(rec[5:13])
	inst.Addr = binary.LittleEndian.Uint64(rec[13:21])
	r.pos++
	if r.pos == r.count {
		r.pos = 0
	}
}
