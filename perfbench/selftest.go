package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
)

// plantTransport corrupts one response after the measured window opens:
// the first response holding marker gets the byte after the marker
// changed to a different digit. A sound harness counts it as a failure.
type plantTransport struct {
	base   http.RoundTripper
	marker []byte
	armed  atomic.Bool

	mu      sync.Mutex
	planted bool
}

func (p *plantTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.base.RoundTrip(req)
	if err != nil || !p.armed.Load() {
		return resp, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.planted {
		return resp, nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if i := bytes.Index(b, p.marker); i >= 0 && i+len(p.marker) < len(b) {
		j := i + len(p.marker)
		if b[j] == '9' {
			b[j] = '8'
		} else {
			b[j] = '9'
		}
		p.planted = true
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp, nil
}

// plantMarkers names, per workload, a response field its checks read.
var plantMarkers = map[string]string{
	"interactive":    keyCycle,
	"batch-detailed": keyCycles,
	"c-build":        keyA0,
	"ff-long":        keyA0,
}

// runSelftest smoke-runs every workload (traced, so both phases and the
// tracer run) and requires zero failures, then reruns each with one
// planted wrong response and requires it to be counted.
func runSelftest(o options) int {
	pass := true
	report := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict, pass = "FAIL", false
		}
		fmt.Printf("selftest %s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	for _, name := range workloadNames {
		smoke := o
		smoke.workload, smoke.seconds, smoke.trace = name, 4, true
		res, err := bench(smoke)
		report(err == nil && res.Correct && res.Attempted > 0,
			"%s smoke: %s", name, outcome(res, err))

		planted := o
		planted.workload, planted.seconds = name, 2
		n := runtime.NumCPU()
		pt := &plantTransport{
			base:   &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
			marker: []byte(plantMarkers[name]),
		}
		planted.rt = pt
		res, err = bench(planted)
		report(err == nil && pt.planted && res.Failed >= 1 && !res.Correct,
			"%s planted wrong response counted: %s", name, outcome(res, err))
	}
	if !pass {
		return 1
	}
	return 0
}

func outcome(res *result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
}
