package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// interactive is Table I's 100-user row without time scaling: an open
// loop of 100 session slots, each sending one request per second with
// seeded phase and jitter. A session runs session/new, 1-cycle steps that
// return full state (every 5th step goes one cycle back), one
// session/checkpoint, then close; the slot then opens a new session.
type interactive struct {
	seed  int64
	progs []workload.Workload
	slots []*slot
	probe string // session the traced run's router hop probe steps

	mu       sync.Mutex
	finished []*session // sessions that checkpointed, for verify
}

const (
	interactiveSlots = 100
	period           = time.Second
	jitter           = 100 * time.Millisecond // each request is due within ±jitter of its slot tick
	minSteps         = 30
	maxSteps         = 50
	// behindLimit is how far past its due time a request may be sent
	// before it counts as the open loop falling behind its schedule.
	behindLimit = period
)

const (
	pathNew        = api.V1Prefix + "/session/new"
	pathStep       = api.V1Prefix + "/session/step"
	pathCheckpoint = api.V1Prefix + "/session/checkpoint"
	pathClose      = api.V1Prefix + "/session/close"
)

type slot struct {
	rng    *rand.Rand    // the slot's seeded session lengths and jitter
	offset time.Duration // phase of the slot's tick within the period
	tick   int           // next tick number
	sess   *session
	// The slot's sessions run the corpus programs in turn from firstProg,
	// a seeded start that spreads the slots evenly over the corpus, so
	// every seed sends the same program mix.
	firstProg int
	opened    int
	sent      int
	behind    int // requests sent more than behindLimit after their due time
}

type session struct {
	id      string
	prog    int
	steps   int    // steps the session will take
	ops     []int8 // steps sent so far: +1 forward, -1 back
	cycle   int64  // expected cycle after ops
	ckpt    []byte // checkpoint response, verified after the run
	checked bool   // checkpoint taken
}

func newInteractive(seed int64) *interactive {
	in := &interactive{seed: seed, progs: workload.Corpus()}
	first := shuffledRounds(seed, 12, len(in.progs))
	for i := 0; i < interactiveSlots; i++ {
		rng := rngFor(seed, 10, i)
		in.slots = append(in.slots, &slot{rng: rng, offset: time.Duration(rng.Int63n(int64(period))), firstProg: first(i)})
	}
	return in
}

func (in *interactive) newRequest(prog int) []byte {
	w := in.progs[prog]
	b, _ := json.Marshal(&api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: w.Source, Entry: w.Entry}})
	return b
}

// openSession draws the slot's next session and creates it.
func (in *interactive) openSession(e *env, s *slot) (*session, error) {
	sess := &session{prog: (s.firstProg + s.opened) % len(in.progs), steps: minSteps + s.rng.Intn(maxSteps-minSteps+1)}
	s.opened++
	b, err := post(e.cl, e.c.routerURL+pathNew, in.newRequest(sess.prog))
	if err != nil {
		return nil, err
	}
	id, ok := scanString(b, keySessionID)
	if c, okc := scanNumber(b, keyCycle); !ok || !okc || c != 0 {
		return nil, fmt.Errorf("session/new: bad response %.120s", b)
	}
	sess.id = id
	return sess, nil
}

// warm opens every slot's first session, each already part-way through
// its life so that session starts are spread evenly over the run, plus
// the hop-probe session.
func (in *interactive) warm(e *env) error {
	for _, s := range in.slots {
		sess, err := in.openSession(e, s)
		if err != nil {
			return err
		}
		sess.steps = 1 + s.rng.Intn(sess.steps)
		s.sess = sess
	}
	b, err := post(e.cl, e.c.routerURL+pathNew, in.newRequest(0))
	if err != nil {
		return err
	}
	in.probe, _ = scanString(b, keySessionID)
	return nil
}

func (in *interactive) drive(e *env, w *window) {
	var wg sync.WaitGroup
	for _, s := range in.slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.runSlot(e, w, s)
		}()
	}
	wg.Wait()
}

func (in *interactive) runSlot(e *env, w *window, s *slot) {
	prevDone := time.Time{}
	for {
		j := time.Duration(s.rng.Int63n(int64(2*jitter))) - jitter
		due := w.start.Add(s.offset + time.Duration(s.tick)*period + j)
		s.tick++
		if !due.Before(w.end) {
			return
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		s.sent++
		rec := w.recs[w.phase(due)]
		rec.attempt()
		// Lateness is the generator's own: how long after the request
		// could go (due, and the session's previous reply in) it went.
		rec.lateBy(sent.Sub(maxTime(due, prevDone)))
		if sent.Sub(due) > behindLimit {
			s.behind++
		}
		cycles, err := in.next(e, w, s, rec)
		done := time.Now()
		prevDone = done
		if err != nil {
			rec.fail("%v", err)
			// The session's state is unknown now; start a fresh one.
			s.sess = nil
			continue
		}
		rec.ok(done.Sub(due), done.Sub(sent), cycles, done)
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// next sends the slot's next request, checks the reply and returns the
// cycles it simulated forward.
func (in *interactive) next(e *env, w *window, s *slot, rec *recorder) (uint64, error) {
	sess := s.sess
	switch {
	case sess == nil:
		sess, err := in.openSession(e, s)
		if err != nil {
			return 0, err
		}
		rec.build(true) // corpus programs: every source repeats sooner or later
		s.sess = sess
		return 0, nil
	case len(sess.ops) < sess.steps:
		op := int8(1)
		if (len(sess.ops)+1)%5 == 0 {
			op = -1
		}
		body := fmt.Appendf(nil, `{"sessionId":%q,"steps":%d}`, sess.id, op)
		sent := time.Now()
		b, err := post(e.cl, e.c.routerURL+pathStep, body)
		if err != nil {
			return 0, err
		}
		svc := time.Since(sent)
		want := sess.cycle + int64(op)
		if got, ok := scanNumber(b, keyCycle); !ok || got != want {
			return 0, fmt.Errorf("session %s step %+d: cycle %d, want %d", sess.id, op, got, want)
		}
		sess.ops = append(sess.ops, op)
		sess.cycle = want
		if w.tr != nil && w.phase(sent) == 1 {
			kind := kindStep
			if op < 0 {
				kind = kindBack
			}
			p := in.progs[sess.prog]
			w.tr.offer(&sample{kind: kind, req: api.SimulateRequest{Code: p.Source, Entry: p.Entry},
				path: pathStep, body: body, hopBody: fmt.Appendf(nil, `{"sessionId":%q,"steps":1}`, in.probe),
				resp: b, svc: svc, cycles: uint64(want)})
		}
		if op < 0 {
			return 0, nil
		}
		return 1, nil
	case !sess.checked:
		b, err := post(e.cl, e.c.routerURL+pathCheckpoint, fmt.Appendf(nil, `{"sessionId":%q}`, sess.id))
		if err != nil {
			return 0, err
		}
		sess.ckpt, sess.checked = b, true
		in.mu.Lock()
		in.finished = append(in.finished, sess)
		in.mu.Unlock()
		return 0, nil
	default:
		b, err := post(e.cl, e.c.routerURL+pathClose, fmt.Appendf(nil, `{"sessionId":%q}`, sess.id))
		if err != nil {
			return 0, err
		}
		if !bytes.Contains(b, []byte(`"closed":true`)) {
			return 0, fmt.Errorf("session %s close: %.120s", sess.id, b)
		}
		s.sess = nil
		return 0, nil
	}
}

// behind counts the requests sent more than behindLimit after their due
// time, out of all sent.
func (in *interactive) behind() (late, sent int) {
	for _, s := range in.slots {
		late += s.behind
		sent += s.sent
	}
	return late, sent
}

// verify restores every end-of-session checkpoint in-process and compares
// its StateHash with an in-process replay of the same steps.
func (in *interactive) verify(rec *recorder) {
	for _, sess := range in.finished {
		if err := in.verifySession(sess); err != nil {
			rec.fail("%v", err)
		}
	}
}

func (in *interactive) verifySession(sess *session) error {
	var resp api.SessionCheckpointResponse
	if err := json.Unmarshal(sess.ckpt, &resp); err != nil {
		return fmt.Errorf("session %s checkpoint: %w", sess.id, err)
	}
	if resp.Cycle != uint64(sess.cycle) || !resp.Durable {
		return fmt.Errorf("session %s checkpoint: cycle %d durable %v, want cycle %d durable",
			sess.id, resp.Cycle, resp.Durable, sess.cycle)
	}
	restored, err := sim.Restore(bytes.NewReader(resp.Checkpoint))
	if err != nil {
		return fmt.Errorf("session %s restore: %w", sess.id, err)
	}
	w := in.progs[sess.prog]
	m, aerr := server.BuildMachine(&api.SimulateRequest{Code: w.Source, Entry: w.Entry})
	if aerr != nil {
		return fmt.Errorf("session %s replay: %v", sess.id, aerr)
	}
	m.EnableSnapshots(0)
	for _, op := range sess.ops {
		if op > 0 {
			m.Run(1)
		} else if err := m.GotoCycle(m.Cycle() - 1); err != nil {
			return fmt.Errorf("session %s replay: %w", sess.id, err)
		}
	}
	if got, want := restored.StateHash(), m.StateHash(); got != want {
		return fmt.Errorf("session %s: restored checkpoint StateHash %016x, in-process replay %016x", sess.id, got, want)
	}
	return nil
}

func (in *interactive) reference() api.SimulateRequest {
	w := in.progs[rngFor(in.seed, 11, 0).Intn(len(in.progs))]
	return api.SimulateRequest{Code: w.Source, Entry: w.Entry, Steps: maxSteps}
}
