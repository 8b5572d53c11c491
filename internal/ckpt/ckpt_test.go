package ckpt

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U64(0)
	w.U64(1<<63 + 17)
	w.I64(-42)
	w.Int(12345)
	w.Fixed64(0xDEADBEEFCAFEF00D)
	w.Fixed32(0xFEEDC0DE)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Section(SecCore)
	w.Value(expr.NewDouble(3.25))
	w.Exception(nil)
	w.Exception(&fault.Exception{Kind: fault.DivisionByZero, Msg: "div", Cycle: 9, PC: 4})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.U64(); got != 1<<63+17 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 12345 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Fixed64(); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("Fixed64 = %x", got)
	}
	if got := r.Fixed32(); got != 0xFEEDC0DE {
		t.Errorf("Fixed32 = %x", got)
	}
	if got := r.Bytes(10); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(10); got != "hello" {
		t.Errorf("String = %q", got)
	}
	r.Section(SecCore)
	if v := r.Value(); v.Double() != 3.25 || v.Type() != expr.Double {
		t.Errorf("Value = %v", v)
	}
	if e := r.Exception(); e != nil {
		t.Errorf("Exception = %v, want nil", e)
	}
	e := r.Exception()
	if e == nil || e.Kind != fault.DivisionByZero || e.Msg != "div" || e.Cycle != 9 || e.PC != 4 {
		t.Errorf("Exception = %+v", e)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// Both sides keep the CRC-32C of exactly the bytes they processed.
	want := crc32.Checksum(buf.Bytes(), crc32.MakeTable(crc32.Castagnoli))
	if w.Sum() != want || r.Sum() != want {
		t.Errorf("Sum: writer %08x, reader %08x, want %08x", w.Sum(), r.Sum(), want)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes(make([]byte, 100))
	full := buf.Bytes()

	for _, cut := range []int{0, 1, 50} {
		r := NewReader(bytes.NewReader(full[:cut]))
		r.Bytes(200)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

func TestSectionMismatchIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(SecCache)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Section(SecCore)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
}

func TestLengthBound(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 40) // absurd length prefix
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Bytes(-1)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
}

func TestErrorsAreSticky(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	_ = r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error on empty stream")
	}
	_ = r.Int()
	_ = r.Bytes(4)
	if r.Err() != first {
		t.Errorf("error not sticky: %v then %v", first, r.Err())
	}
}
