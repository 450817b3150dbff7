package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	p := simpleProfile()
	var buf bytes.Buffer
	const n = 5000
	if err := WriteTrace(&buf, p, n); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != p.Name || r.Count() != n {
		t.Errorf("header: name %q count %d", r.Name(), r.Count())
	}
	// The replayed stream must match the generator byte for byte.
	gen, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var a, b Inst
	for i := 0; i < n; i++ {
		gen.Next(&a)
		r.Next(&b)
		if a != b {
			t.Fatalf("instruction %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestReaderLoops(t *testing.T) {
	p := simpleProfile()
	var buf bytes.Buffer
	const n = 100
	if err := WriteTrace(&buf, p, n); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	first := make([]Inst, n)
	for i := range first {
		r.Next(&first[i])
	}
	var again Inst
	for i := 0; i < n; i++ {
		r.Next(&again)
		if again != first[i] {
			t.Fatalf("loop replay diverged at %d", i)
		}
	}
}

func TestWriteTraceValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, simpleProfile(), 0); err == nil {
		t.Error("accepted zero-length trace")
	}
	bad := simpleProfile()
	bad.Name = ""
	if err := WriteTrace(&buf, bad, 10); err == nil {
		t.Error("accepted invalid profile")
	}
}

func TestRecordLongName(t *testing.T) {
	g, err := NewGenerator(simpleProfile())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, g, strings.Repeat("x", 300), 10); err == nil {
		t.Error("accepted over-long name")
	}
}

func TestNewReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("accepted garbage input")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty input")
	}
	// Truncated records.
	p := simpleProfile()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p, 50); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := NewReader(bytes.NewReader(trunc)); err == nil {
		t.Error("accepted truncated trace")
	}
}

// TestNewReaderRejectsUnrunnableRecords corrupts one field of one record
// in a valid file per case and requires the load to fail naming that
// record and field.
func TestNewReaderRejectsUnrunnableRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, simpleProfile(), 50); err != nil {
		t.Fatal(err)
	}
	header := len(fileMagic) + 1 + len(simpleProfile().Name) + 8
	const rec = 17
	for _, tc := range []struct {
		field  string
		offset int
		value  byte
		want   string
	}{
		{"class", 0, byte(NumClasses), "class 7"},
		{"dst", 1, 64, "dst register 64"},
		{"src1", 2, 100, "src1 register 100"},
		{"src2", 3, 254, "src2 register 254"},
	} {
		t.Run(tc.field, func(t *testing.T) {
			b := bytes.Clone(buf.Bytes())
			b[header+rec*recordBytes+tc.offset] = tc.value
			_, err := NewReader(bytes.NewReader(b))
			if err == nil {
				t.Fatalf("accepted %s = %d", tc.field, tc.value)
			}
			if !strings.Contains(err.Error(), "record 17") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name record 17 and %q", err, tc.want)
			}
		})
	}
	// NoReg and the last architectural register stay legal.
	b := bytes.Clone(buf.Bytes())
	b[header+rec*recordBytes+1] = NoReg
	b[header+rec*recordBytes+2] = NumRegs - 1
	if _, err := NewReader(bytes.NewReader(b)); err != nil {
		t.Errorf("rejected a runnable record: %v", err)
	}
}
