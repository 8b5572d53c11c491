package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/seeds"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// env is what a workload drives: the cluster and the generator's client.
type env struct {
	seed int64
	c    *cluster
	cl   *http.Client
}

// window is one measured run over [start, end). A traced run splits it at
// split into an untraced phase (recs[0]) and a traced one (recs[1]); an
// untraced run has split == end.
type window struct {
	start, split, end time.Time
	recs              [2]*recorder
	tr                *tracer
}

func (w *window) phase(t time.Time) int {
	if t.Before(w.split) {
		return 0
	}
	return 1
}

// A benchWorkload is one traffic mix. Inputs derive from the seed alone.
type benchWorkload interface {
	// warm runs the fixed-size warm-up that ends set-up.
	warm(e *env) error
	// drive sends load over w and returns once every request it sent
	// has completed.
	drive(e *env, w *window)
	// verify runs the oracles deferred off the hot path.
	verify(rec *recorder)
	// reference is a deterministic simulate request whose server result
	// is compared with an in-process run (model.cycles, model.committed).
	reference() api.SimulateRequest
}

// rngFor returns the seeded random stream number stream, element i.
func rngFor(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seeds.Mix(seeds.Mix(seed) + int64(stream)<<32 + int64(i))))
}

// shuffledRounds returns element i of an endless sequence of rounds, each
// a seeded permutation of 0..n-1: every seed visits every value equally
// often, in its own order.
func shuffledRounds(seed int64, stream, n int) func(i int) int {
	var mu sync.Mutex
	perms := map[int][]int{}
	return func(i int) int {
		mu.Lock()
		defer mu.Unlock()
		p, ok := perms[i/n]
		if !ok {
			p = rngFor(seed, stream, i/n).Perm(n)
			perms[i/n] = p
		}
		return p[i%n]
	}
}

// simReq is one /api/v1/simulate request of a closed-loop workload.
type simReq struct {
	req    api.SimulateRequest
	body   []byte
	repeat bool // its (source, opt) pair was generated before
	// check validates a response and returns the cycles it simulated.
	check func(resp []byte) (uint64, error)
}

func newSimReq(r api.SimulateRequest, check func([]byte) (uint64, error)) *simReq {
	body, err := json.Marshal(&r)
	if err != nil {
		panic(err) // a SimulateRequest always marshals
	}
	return &simReq{req: r, body: body, check: check}
}

// closedLoop drives one client that sends its next request only after
// the previous one completed; request i is next(i). One client keeps the
// servers' demand under one of the two cores: with two clients the
// throughput of a run swung twofold with the CPU the host lent it.
type closedLoop struct {
	warmup []*simReq
	next   func(i int) *simReq
}

const simulatePath = api.V1Prefix + "/simulate"

func (l *closedLoop) warm(e *env) error {
	for i, r := range l.warmup {
		b, err := post(e.cl, e.c.routerURL+simulatePath, r.body)
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if _, err := r.check(b); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

func (l *closedLoop) drive(e *env, w *window) {
	prevDone := time.Now()
	for i := 0; ; i++ {
		r := l.next(i)
		sent := time.Now()
		if !sent.Before(w.end) {
			return
		}
		p := w.phase(sent)
		rec := w.recs[p]
		rec.attempt()
		rec.build(r.repeat)
		rec.lateBy(sent.Sub(prevDone))
		b, err := post(e.cl, e.c.routerURL+simulatePath, r.body)
		done := time.Now()
		prevDone = done
		if err != nil {
			rec.fail("%v", err)
			continue
		}
		cycles, err := r.check(b)
		if err != nil {
			rec.fail("%v", err)
			continue
		}
		rec.ok(done.Sub(sent), done.Sub(sent), cycles, done)
		if p == 1 && w.tr != nil {
			w.tr.offer(&sample{kind: kindSimulate, req: r.req, path: simulatePath, body: r.body,
				resp: b, svc: done.Sub(sent), cycles: cycles})
		}
	}
}

func (l *closedLoop) verify(rec *recorder) {}

func (l *closedLoop) reference() api.SimulateRequest { return l.next(0).req }

// ---------------------------------------------------------------------------
// batch-detailed: the 13 corpus programs to completion on the detailed
// engine, in a seeded order, stats report only.
// ---------------------------------------------------------------------------

func newBatchDetailed(seed int64, root string) (*closedLoop, error) {
	corpus := workload.Corpus()
	reqs := make([]*simReq, len(corpus))
	shortest := 0
	var shortestCycles uint64
	for i, w := range corpus {
		g, err := workload.ReadGolden(filepath.Join(root, "internal", "workload", "testdata", "golden"), w.Name)
		if err != nil {
			return nil, err
		}
		w, want := w, g.Metrics
		if i == 0 || want.Cycles < shortestCycles {
			shortest, shortestCycles = i, want.Cycles
		}
		reqs[i] = newSimReq(api.SimulateRequest{Code: w.Source, Entry: w.Entry, Steps: w.MaxCycles},
			func(b []byte) (uint64, error) {
				var resp api.SimulateResponse
				if err := json.Unmarshal(b, &resp); err != nil {
					return 0, fmt.Errorf("%s: decode: %w", w.Name, err)
				}
				if resp.Stats == nil {
					return 0, fmt.Errorf("%s: response without stats", w.Name)
				}
				got := workload.FromReport(w, resp.Stats)
				if resp.Cycles != want.Cycles || got.Cycles != want.Cycles || got.Committed != want.Committed ||
					got.IPC != want.IPC || got.HaltReason != want.HaltReason || !resp.Halted {
					return 0, fmt.Errorf("%s: got cycles %d committed %d ipc %v halt %q, golden %d %d %v %q",
						w.Name, resp.Cycles, got.Committed, got.IPC, got.HaltReason,
						want.Cycles, want.Committed, want.IPC, want.HaltReason)
				}
				return resp.Cycles, nil
			})
	}
	order := shuffledRounds(seed, 1, len(reqs))
	next := func(i int) *simReq {
		r := *reqs[order(i)]
		r.repeat = i >= len(reqs)
		return &r
	}
	// Warm-up sends the shortest corpus program once: set-up is then
	// mostly process start and ring health, which hold steady while the
	// host's speed drifts, instead of 13 runs on the detailed engine.
	return &closedLoop{warmup: []*simReq{reqs[shortest]}, next: next}, nil
}

// ---------------------------------------------------------------------------
// c-build: generated C kernels at -O0..-O3 with includeState; half the
// requests repeat an earlier (source, opt) pair.
// ---------------------------------------------------------------------------

// cRequest simulates kernel k at -O opt; the check requires the kernel's
// a0 and a halted run.
func cRequest(k cKernel, opt int) *simReq {
	return newSimReq(api.SimulateRequest{Code: k.src, Language: "c", Optimize: opt, IncludeState: true},
		func(b []byte) (uint64, error) {
			if a0, ok := scanString(b, keyA0); !ok || a0 != fmt.Sprint(k.want) {
				return 0, fmt.Errorf("c kernel -O%d: a0 = %q, want %d", opt, a0, k.want)
			}
			return checkHalted(b)
		})
}

func newCBuild(seed int64) *closedLoop {
	var mu sync.Mutex
	var made []*simReq // request i, generated in order
	var fresh []int    // indices of the requests that are new pairs
	// New kernels visit every (kind, -O level, size quarter) once per
	// round, so every seed sends the same mix of compile and run costs.
	mix := shuffledRounds(seed, 6, cKinds*4*cSizeQuarters)
	gen := func(i int) *simReq {
		rng := rngFor(seed, 2, i)
		// Requests come in pairs: one new (source, opt) pair and one
		// repeat of an earlier new pair, in seeded order within the
		// pair. The first pair can only repeat its own first request.
		repeat := i == 1
		if pair := i / 2; pair > 0 {
			repeat = i%2 == rngFor(seed, 3, pair).Intn(2)
		}
		if repeat {
			r := *made[fresh[rng.Intn(len(fresh))]]
			r.repeat = true
			return &r
		}
		c := mix(len(fresh))
		fresh = append(fresh, i)
		return cRequest(genCKernel(rng, c/(4*cSizeQuarters), c%cSizeQuarters), c/cSizeQuarters%4)
	}
	next := func(i int) *simReq {
		mu.Lock()
		defer mu.Unlock()
		for len(made) <= i {
			made = append(made, gen(len(made)))
		}
		return made[i]
	}
	l := &closedLoop{next: next}
	// Warm-up compiles one kernel of each kind at each -O level, at the
	// smallest sizes, so set-up costs the same for every seed.
	for kind := 0; kind < cKinds; kind++ {
		for opt := 0; opt < 4; opt++ {
			l.warmup = append(l.warmup, cRequest(genCKernel(rngFor(seed, 7, kind*4+opt), kind, 0), opt))
		}
	}
	return l
}

// checkHalted requires a halted run and returns its top-level cycles.
func checkHalted(b []byte) (uint64, error) {
	cycles, ok := scanNumber(b, keyCycles)
	if !ok || cycles <= 0 {
		return 0, fmt.Errorf("response without cycles")
	}
	if i := bytes.Index(b, []byte(keyHalted)); i < 0 || !bytes.HasPrefix(b[i+len(keyHalted):], []byte("true")) {
		return 0, fmt.Errorf("run did not halt")
	}
	return uint64(cycles), nil
}

// ---------------------------------------------------------------------------
// ff-long: workload.LongStream at seeded pass counts on the fast-forward
// engine, under the server's 50M-cycle cap.
// ---------------------------------------------------------------------------

// Pass counts are drawn stratified: each round of ffStrata requests visits
// every stratum of [ffMinPasses, ffMinPasses+ffStrata*ffStratum) once in a
// seeded order, so every seed sends the same mix of run lengths.
const (
	ffMinPasses = 200
	ffStrata    = 8
	ffStratum   = 200
)

// longStreamA0 is LongStream's checksum at any pass count: the tail of
// the copied index ramp, 2048 words long.
const longStreamA0 = 2047

// The expected committed count does not come from the fast-forward engine
// under test. LongStream(4) is the corpus memcpy-stream program, so its
// count is the golden row's; each further pass adds a fixed count, taken
// from two short runs on the detailed engine.
func newFFLong(seed int64, root string) (*closedLoop, error) {
	g, err := workload.ReadGolden(filepath.Join(root, "internal", "workload", "testdata", "golden"), "memcpy-stream")
	if err != nil {
		return nil, err
	}
	detailed := func(passes uint64) (uint64, error) {
		w := workload.LongStream(passes)
		m, err := sim.NewFromAsm(sim.DefaultConfig(), w.Source, w.Entry)
		if err != nil {
			return 0, err
		}
		m.Run(w.MaxCycles)
		if !m.Halted() {
			return 0, fmt.Errorf("long-stream %d passes did not halt on the detailed engine", passes)
		}
		return m.Committed(), nil
	}
	c4, err := detailed(4)
	if err != nil {
		return nil, err
	}
	c5, err := detailed(5)
	if err != nil {
		return nil, err
	}
	if c4 != g.Metrics.Committed {
		return nil, fmt.Errorf("long-stream 4 passes commits %d on the detailed engine, golden memcpy-stream %d", c4, g.Metrics.Committed)
	}
	perPass := c5 - c4
	stratum := shuffledRounds(seed, 4, ffStrata)
	passesOf := func(i int) uint64 {
		return uint64(ffMinPasses + stratum(i)*ffStratum + rngFor(seed, 5, i).Intn(ffStratum))
	}
	request := func(passes uint64) *simReq {
		w := workload.LongStream(passes)
		want := g.Metrics.Committed + (passes-4)*perPass
		return newSimReq(api.SimulateRequest{Code: w.Source, Entry: w.Entry, FastForward: true, IncludeState: true},
			func(b []byte) (uint64, error) {
				got, ok := scanNumber(b, keyCommitted)
				if !ok || uint64(got) != want {
					return 0, fmt.Errorf("long-stream %d passes: committed %d, want %d", passes, got, want)
				}
				if v, ok := scanString(b, keyA0); !ok || v != fmt.Sprint(longStreamA0) {
					return 0, fmt.Errorf("long-stream %d passes: a0 = %q, want %d", passes, v, longStreamA0)
				}
				return checkHalted(b)
			})
	}
	next := func(i int) *simReq { return request(passesOf(i)) }
	// Warm-up runs the request shape at a short length.
	return &closedLoop{warmup: []*simReq{request(10)}, next: next}, nil
}
