package server

import (
	"net/http"
	"time"

	"riscvsim/internal/api"
)

const (
	// defaultStepBurst is how many cycles advance between stream events
	// when the request doesn't say.
	defaultStepBurst = 32
	// defaultMaxStreamEvents caps intermediate events so burst=1 on a
	// long program cannot produce an unbounded response.
	defaultMaxStreamEvents = 10_000
)

// handleSessionStream is the NDJSON streaming endpoint: it builds a
// machine, then pushes one StreamEvent per step burst — interactive
// clients watch the run instead of polling /session/step. Each line is
// flushed through the gzip middleware (which implements http.Flusher
// passthrough) so events arrive as they happen.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	defer s.account(time.Now())
	var req api.StreamRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	m, aerr := s.buildMachine(&req.SimulateRequest)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}

	burst := req.StepBurst
	if burst == 0 {
		burst = defaultStepBurst
	}
	limit := req.Steps
	if limit == 0 || limit > maxBatchCycles {
		limit = maxBatchCycles
	}
	maxEvents := req.MaxEvents
	if maxEvents <= 0 || maxEvents > defaultMaxStreamEvents {
		maxEvents = defaultMaxStreamEvents
	}

	out := s.startNDJSON(w)
	ctx := r.Context()
	seq := 0
	var stepped uint64
	for !m.Halted() && stepped < limit {
		if ctx.Err() != nil {
			return // client went away
		}
		n := burst
		if remaining := limit - stepped; n > remaining {
			n = remaining
		}
		if seq >= maxEvents-1 {
			// Event cap: finish the run without intermediate events.
			sstart := time.Now()
			stepped += m.Run(limit - stepped)
			s.simNs.Add(uint64(time.Since(sstart)))
			break
		}
		sstart := time.Now()
		ran := m.StepN(n)
		s.simNs.Add(uint64(time.Since(sstart)))
		stepped += ran
		if ran == 0 && !m.Halted() {
			break // paused (breakpoint); don't spin
		}
		ev := &api.StreamEvent{Seq: seq, Cycle: m.Cycle(), Halted: m.Halted()}
		if req.IncludeState {
			ev.State = m.State(false)
		}
		if !out.line(ev, true) {
			return
		}
		seq++
	}

	final := &api.StreamEvent{
		Seq:        seq,
		Cycle:      m.Cycle(),
		Halted:     m.Halted(),
		HaltReason: m.HaltReason(),
		Done:       true,
		Stats:      m.Report(),
	}
	if req.IncludeState {
		final.State = m.State(req.IncludeLog)
	}
	out.line(final, true)
}

// ndjsonWriter is the NDJSON endpoints' line writer: one JSON document
// per line, its encode time booked into jsonNs, newline-terminated,
// optionally flushed (through the gzip middleware's http.Flusher
// passthrough), and counted in streamEvents.
type ndjsonWriter struct {
	s       *Server
	w       http.ResponseWriter
	flusher http.Flusher
}

// startNDJSON commits a 200 NDJSON response and returns its line writer.
// Errors found before this point go out as a regular error envelope.
func (s *Server) startNDJSON(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", api.MediaTypeNDJSON)
	// Front proxies must not buffer the stream (nginx honours this).
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{s: s, w: w, flusher: flusher}
}

// line writes v as one line, reporting false once the stream is dead.
func (nw *ndjsonWriter) line(v any, flush bool) bool {
	buf := api.GetBuffer()
	defer api.PutBuffer(buf)
	jstart := time.Now()
	err := api.JSONCodec.Encode(buf, v)
	nw.s.jsonNs.Add(uint64(time.Since(jstart)))
	if err != nil {
		return false
	}
	buf.WriteByte('\n')
	if _, err := nw.w.Write(buf.Bytes()); err != nil {
		return false
	}
	if flush {
		nw.flush()
	}
	nw.s.streamEvents.Add(1)
	return true
}

// flush pushes buffered lines to the client.
func (nw *ndjsonWriter) flush() {
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
}
