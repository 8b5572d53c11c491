package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/asm"
	"riscvsim/internal/compiler"
	"riscvsim/internal/core"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/internal/store"
	"riscvsim/sim"
)

// Kinds of sampled request.
const (
	kindSimulate = iota
	kindStep
	kindBack
)

// sample is one completed request handed to the tracer.
type sample struct {
	kind   int
	req    api.SimulateRequest // the program (for a step: its session's)
	path   string
	body   []byte // request body as sent
	resp   []byte // response body as received, inflated
	svc    time.Duration
	cycles uint64 // server-reported cycles of the run, or cycle after the step
	// hopBody, when set, is what the router hop probe sends (a step of
	// a probe session); otherwise it sends req cut to one cycle.
	hopBody []byte
}

// tracer times, from outside the program, the calls into each layer's
// public functions for sampled requests of the traced phase. A sweep runs
// in the goroutine that completed the request, so a closed loop's next
// request waits for it and never competes with it for the CPU; at most
// one sweep runs at a time, at least traceSpacing apart.
type tracer struct {
	e     *env
	store *store.Dir
	gz    *gzip.Writer
	cC    cKernel // off-path compile input for assembly workloads
	fail  func(format string, args ...any)

	mu         sync.Mutex // held for a sweep
	last       time.Time
	vals       map[string][]float64
	attributed float64 // ms, excluding the router hop
	e2e        float64 // ms
	n          int
}

const (
	traceSpacing   = 250 * time.Millisecond
	hopPairs       = 3
	detailedCap    = 200_000    // cycles an in-process detailed probe may run
	fastForwardCap = 60_000_000 // above every request the server accepts
)

func newTracer(e *env, dir string, fail func(string, ...any)) (*tracer, error) {
	st, err := store.NewDir(dir)
	if err != nil {
		return nil, err
	}
	return &tracer{
		e: e, store: st,
		gz:   gzip.NewWriter(io.Discard),
		cC:   genCKernel(rngFor(e.seed, 20, 0), cSort, 1),
		fail: fail,
		vals: map[string][]float64{},
	}, nil
}

// offer sweeps s unless a sweep is running or the last one started less
// than traceSpacing ago.
func (t *tracer) offer(s *sample) {
	if !t.mu.TryLock() {
		return
	}
	defer t.mu.Unlock()
	if time.Since(t.last) < traceSpacing {
		return
	}
	t.last = time.Now()
	if err := t.sweep(s); err != nil {
		t.fail("trace: %v", err)
	}
}

func (t *tracer) add(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// sweep times every layer for one sample and books the sample's
// attributed time: the layers its request passes through on the server.
func (t *tracer) sweep(s *sample) error {
	// router: the same request via the router and directly to the
	// replica, alternating which goes first; hopPairs pairs per sample.
	hb := s.hopBody
	if hb == nil {
		// A simulate request cut to one cycle, so that the hop is not
		// lost in the run-time noise of a long request.
		short := s.req
		short.Steps = 1
		var err error
		if hb, err = json.Marshal(&short); err != nil {
			return err
		}
	}
	for i := 0; i < hopPairs; i++ {
		var via, direct time.Duration
		var err1, err2 error
		sendVia := func() { via = timed(func() { _, err1 = post(t.e.cl, t.e.c.routerURL+s.path, hb) }) }
		sendDirect := func() { direct = timed(func() { _, err2 = post(t.e.cl, t.e.c.serverURL+s.path, hb) }) }
		if i%2 == 0 {
			sendVia()
			sendDirect()
		} else {
			sendDirect()
			sendVia()
		}
		if err1 != nil || err2 != nil {
			return fmt.Errorf("router hop probe: %v / %v", err1, err2)
		}
		t.add("router.hop_ms", ms(via-direct))
	}

	// api: decode the request as the server does.
	var dec time.Duration
	var decErr error
	if s.kind == kindSimulate {
		var r api.SimulateRequest
		dec = timed(func() { decErr = api.JSONCodec.Decode(bytes.NewReader(s.body), &r) })
	} else {
		var r api.SessionStepRequest
		dec = timed(func() { decErr = api.JSONCodec.Decode(bytes.NewReader(s.body), &r) })
	}
	if decErr != nil {
		return decErr
	}

	// compiler, isa, asm, core.New: the build stages one by one.
	cfg := sim.DefaultConfig()
	isC := strings.EqualFold(s.req.Language, "c")
	csrc, opt := t.cC.src, 2
	if isC {
		csrc, opt = s.req.Code, s.req.Optimize
	}
	var cres *compiler.Result
	var err error
	compile := timed(func() { cres, err = compiler.Compile(csrc, opt) })
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	src := s.req.Code
	if isC {
		src = cres.Assembly
	}
	var set *isa.Set
	isaBuild := timed(func() { set = isa.RV32IMF() })
	regs := isa.NewRegisterFile()
	mem := memory.New(cfg.Memory)
	var prog *asm.Program
	assemble := timed(func() { prog, err = asm.Assemble(src, set, regs, mem) })
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	entry, err := prog.EntryPoint(s.req.Entry)
	if err != nil {
		return err
	}
	coreNew := timed(func() { _, err = core.New(cfg, set, regs, prog, mem, entry) })
	if err != nil {
		return fmt.Errorf("core.New: %w", err)
	}

	// sim: the facade's whole build, as the server's handlers call it.
	build := func() (*sim.Machine, error) {
		if isC {
			return sim.NewFromC(cfg, s.req.Code, s.req.Optimize)
		}
		return sim.NewFromAsm(cfg, s.req.Code, s.req.Entry)
	}
	var m *sim.Machine
	simBuild := timed(func() { m, err = build() })
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}

	// core: both engines on the sample's program. A simulate sample's
	// own engine runs its full request and must reproduce the server's
	// cycle count; the other engine runs on a fresh machine.
	steps := s.req.Steps
	if steps == 0 {
		steps = fastForwardCap
	}
	engineRun := func(ff bool, limit uint64) (*sim.Machine, time.Duration, error) {
		mm, err := build()
		if err != nil {
			return nil, 0, err
		}
		if ff {
			mm.SetEngineMode(sim.EngineFastForward)
		}
		d := timed(func() { mm.Run(limit) })
		return mm, d, nil
	}
	var runDur time.Duration
	var det, ffm *sim.Machine
	var detDur, ffDur time.Duration
	if s.kind == kindSimulate {
		if s.req.FastForward {
			m.SetEngineMode(sim.EngineFastForward)
		}
		runDur = timed(func() { m.Run(steps) })
		if m.Cycle() != s.cycles {
			t.fail("in-process run of a sampled request: %d cycles, server reported %d", m.Cycle(), s.cycles)
		}
		if s.req.FastForward {
			ffm, ffDur = m, runDur
		} else {
			det, detDur = m, runDur
		}
	}
	if det == nil {
		if det, detDur, err = engineRun(false, min(steps, detailedCap)); err != nil {
			return err
		}
	}
	if ffm == nil {
		if ffm, ffDur, err = engineRun(true, min(steps, fastForwardCap)); err != nil {
			return err
		}
	}
	if det.Cycle() == 0 || ffm.Cycle() == 0 {
		return fmt.Errorf("engine probe ran no cycles")
	}

	// sim: one step forward and one back on a session-style machine at
	// the sample's cycle (cycle 1000 for simulate samples).
	at := uint64(1000)
	if s.kind != kindSimulate {
		at = s.cycles
	}
	sm, err := build()
	if err != nil {
		return err
	}
	sm.EnableSnapshots(0)
	if at > 0 {
		sm.Run(at - 1)
	}
	step := timed(func() { sm.Run(1) })
	var rewindErr error
	rewind := timed(func() { rewindErr = sm.GotoCycle(sm.Cycle() - 1) })
	if rewindErr != nil {
		return rewindErr
	}
	sm.Run(1)

	// core, stats: state document and report of the machine the
	// response describes.
	rm := sm
	if s.kind == kindSimulate {
		rm = m
	}
	var st *sim.State
	state := timed(func() { st = rm.State(false) })
	var rep *sim.Report
	report := timed(func() { rep = rm.Report() })

	// api: encode the response document; server: gzip it at the
	// middleware's level (gzip.DefaultCompression).
	var resp any = &api.SessionStateResponse{State: st}
	if s.kind == kindSimulate {
		r := &api.SimulateResponse{Halted: rm.Halted(), HaltReason: rm.HaltReason(), Cycles: rm.Cycle(), Stats: rep}
		if s.req.IncludeState {
			r.State = st
		}
		resp = r
	}
	var out bytes.Buffer
	encode := timed(func() { err = api.JSONCodec.Encode(&out, resp) })
	if err != nil {
		return err
	}
	var zipped countWriter
	gzipDur := timed(func() {
		t.gz.Reset(&zipped)
		t.gz.Write(out.Bytes())
		err = t.gz.Close()
	})
	if err != nil {
		return err
	}

	// ckpt, store: checkpoint the machine, restore it, persist it.
	var ck bytes.Buffer
	ckEnc := timed(func() { err = rm.Checkpoint(&ck) })
	if err != nil {
		return err
	}
	ckRestore := timed(func() { _, err = sim.Restore(bytes.NewReader(ck.Bytes())) })
	if err != nil {
		return err
	}
	put := timed(func() { err = t.store.Put("trace", uint64(t.n+1), ck.Bytes()) })
	if err != nil {
		return err
	}

	for name, v := range map[string]float64{
		"api.decode_us": us(dec), "api.encode_us": us(encode), "api.resp_kb": float64(len(s.resp)) / 1024,
		"server.gzip_us": us(gzipDur), "server.gzip_ratio": float64(zipped) / float64(out.Len()),
		"isa.build_us": us(isaBuild), "asm.assemble_us": us(assemble), "compiler.compile_us": us(compile),
		"core.new_us": us(coreNew), "sim.build_us": us(simBuild),
		"core.detailed_ns_per_cycle": float64(detDur) / float64(det.Cycle()),
		"core.ff_ns_per_cycle":       float64(ffDur) / float64(ffm.Cycle()),
		"sim.step_us":                us(step), "sim.rewind_us": us(rewind),
		"core.state_us": us(state), "stats.report_us": us(report),
		"ckpt.encode_us": us(ckEnc), "ckpt.kb": float64(ck.Len()) / 1024, "ckpt.restore_us": us(ckRestore),
		"store.put_us": us(put),
	} {
		t.add(name, v)
	}

	// The layers this request crossed on the server, in sequence.
	attr := dec + encode + gzipDur
	switch s.kind {
	case kindSimulate:
		attr += simBuild + runDur + report
		if s.req.IncludeState {
			attr += state
		}
	case kindStep:
		attr += step + state
	case kindBack:
		attr += rewind + state
	}
	t.attributed += ms(attr)
	t.e2e += ms(s.svc)
	t.n++
	return nil
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(b []byte) (int, error) {
	*c += countWriter(len(b))
	return len(b), nil
}

// results writes into out the sweeps' per-layer medians plus the share
// of the sampled requests' latency no layer accounts for. Call it once
// the load has stopped.
func (t *tracer) results(out map[string]float64) error {
	if t.n == 0 {
		return fmt.Errorf("the traced phase produced no samples")
	}
	for name, vs := range t.vals {
		out[name] = median(vs)
	}
	// The router hop is the median paired difference, via minus direct.
	out["unattributed_frac"] = 1 - (t.attributed+out["router.hop_ms"]*float64(t.n))/t.e2e
	out["trace.samples"] = float64(t.n)
	return nil
}
