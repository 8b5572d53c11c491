package api

import (
	"bytes"
	"strings"
	"testing"
)

func TestCodecsRoundTripIdentically(t *testing.T) {
	doc := &SimulateRequest{
		Code:     "li a0, 1",
		Steps:    42,
		MemFills: []MemFill{{Label: "data", Values: []int64{1, 2, 3}}},
	}
	var buf bytes.Buffer
	if err := JSONCodec.Encode(&buf, doc); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back SimulateRequest
	if err := JSONCodec.Decode(&buf, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Code != doc.Code || back.Steps != doc.Steps || len(back.MemFills) != 1 {
		t.Errorf("round trip mangled the document: %+v", back)
	}
}

func TestCodecsRejectTrailingData(t *testing.T) {
	// A document with trailing garbage is invalid.
	var v SimulateRequest
	if err := JSONCodec.Decode(strings.NewReader(`{"code":"nop"} trailing`), &v); err == nil {
		t.Error("accepted trailing garbage")
	}
	// Trailing whitespace is fine.
	if err := JSONCodec.Decode(strings.NewReader(`{"code":"nop"}`+"\n \t"), &v); err != nil {
		t.Errorf("rejected trailing whitespace: %v", err)
	}
	// A second JSON document is also trailing data.
	if err := JSONCodec.Decode(strings.NewReader(`{"code":"a"}{"code":"b"}`), &v); err == nil {
		t.Error("accepted a second document")
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer()
	b.WriteString("payload")
	PutBuffer(b)
	b2 := GetBuffer()
	defer PutBuffer(b2)
	if b2.Len() != 0 {
		t.Error("recycled buffer not reset")
	}
}

func TestErrorHelpers(t *testing.T) {
	e := Errorf(CodeBuildFailed, "line %d: %s", 3, "boom")
	if e.Code != CodeBuildFailed || e.Message != "line 3: boom" || e.Error() != e.Message {
		t.Errorf("Errorf = %+v", e)
	}
	// WrapError preserves an existing code.
	w := WrapError(CodeInternal, e)
	if w.Code != CodeBuildFailed {
		t.Errorf("WrapError clobbered the code: %+v", w)
	}
}
