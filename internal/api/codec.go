package api

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// Media types of the v1 protocol.
const (
	MediaTypeJSON   = "application/json"
	MediaTypeNDJSON = "application/x-ndjson"
)

// JSONCodec is the protocol's one serialization path: whole-document
// encoding/json. The paper measures JSON handling at ~60% of request
// time (§IV-A); the server books every call into /api/v1/metrics'
// jsonNanos so that share stays measured.
var JSONCodec jsonCodec

type jsonCodec struct{}

// Encode writes v to w as one JSON document (no trailing newline).
func (jsonCodec) Encode(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Decode reads r to the end and unmarshals it into v; trailing data
// after the document is an error.
func (jsonCodec) Decode(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// maxPooledBuffer bounds what goes back in the pool so one huge state
// response doesn't pin memory forever.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// GetBuffer fetches a recycled response buffer. Callers must PutBuffer
// it back.
func GetBuffer() *bytes.Buffer { return bufferPool.Get().(*bytes.Buffer) }

// PutBuffer recycles a buffer obtained from GetBuffer.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufferPool.Put(b)
}
