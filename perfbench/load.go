package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// newClient returns the generator's HTTP client: at most nproc
// connections to the host, and gzip on (the transport asks for it and
// inflates responses itself, as a browser would).
func newClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		n := runtime.NumCPU()
		rt = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, IdleConnTimeout: time.Minute}
	}
	return &http.Client{Transport: rt, Timeout: 90 * time.Second}
}

// post sends one JSON body and returns the (inflated) response body. A
// non-200 status is an error.
func post(cl *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	return b, nil
}

// recorder collects one measurement phase's outcomes. Latency is timed
// from the request's due time (open loop) or send time (closed loop);
// service time always from the send.
type recorder struct {
	mu        sync.Mutex
	lat       []float64 // ms
	svc       []float64 // ms
	late      []float64 // ms the generator sent after it could have
	attempted int
	failed    int
	cycles    uint64
	builds    int // requests that build a machine from source
	repeats   int // ... whose (source, opt) pair was sent before
	failures  []string
	lastDone  time.Time
}

func (r *recorder) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *recorder) ok(lat, svc time.Duration, cycles uint64, done time.Time) {
	r.mu.Lock()
	r.lat = append(r.lat, ms(lat))
	r.svc = append(r.svc, ms(svc))
	r.cycles += cycles
	if done.After(r.lastDone) {
		r.lastDone = done
	}
	r.mu.Unlock()
}

func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *recorder) lateBy(d time.Duration) {
	r.mu.Lock()
	r.late = append(r.late, ms(d))
	r.mu.Unlock()
}

func (r *recorder) build(repeat bool) {
	r.mu.Lock()
	r.builds++
	if repeat {
		r.repeats++
	}
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile p (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// scanNumber parses the integer that follows the first occurrence of key
// in b, without decoding the document around it. Response checks use it
// so the generator never decodes a full state document on the hot path.
func scanNumber(b []byte, key string) (int64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := b[i+len(key):]
	j := 0
	if j < len(rest) && rest[j] == '-' {
		j++
	}
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

// Markers of the response fields the checks read.
const (
	keyCycle     = `"cycle":`                 // session state documents
	keyCycles    = `"cycles":`                // simulate responses (top level comes first)
	keyCommitted = `"committedInstructions":` // first one is the response's stats
	keyA0        = `"alias":"a0","value":"`
	keySessionID = `"sessionId":"`
	keyHalted    = `"halted":` // first one is the response's
)

// scanString returns the string value following key.
func scanString(b []byte, key string) (string, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return "", false
	}
	rest := b[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return string(rest[:j]), true
}
