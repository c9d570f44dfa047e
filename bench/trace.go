package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/commuter"
	"repro/internal/obs"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// Spans are recorded here, around the benchmark's own calls into each
// layer; the program under test is not instrumented. A nil tracer records
// nothing, which is how the untraced runs use the same code.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []obs.Span
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.on.Store(true)
	return t
}

// lane is where a caller's spans render: one trace thread, and the span
// that caused whatever is recorded through it.
type lane struct {
	t      *tracer
	tid    int
	parent int64
}

// lane returns the top-level lane tid.
func (t *tracer) lane(tid int) lane { return lane{t: t, tid: tid} }

// on moves the lane to another trace thread, keeping its parent span.
func (l lane) on(tid int) lane { return lane{t: l.t, tid: tid, parent: l.parent} }

func (l lane) recording() bool { return l.t != nil && l.t.on.Load() }

func (l lane) add(id int64, name, cat string, start time.Time, dur time.Duration, args map[string]any) {
	if args == nil {
		args = map[string]any{}
	}
	args["id"] = id
	if l.parent != 0 {
		args["parent"] = l.parent
	}
	s := obs.Span{
		Name: name, Cat: cat, PID: 1, TID: l.tid, Args: args,
		StartUS: float64(start.Sub(l.t.origin)) / float64(time.Microsecond),
		DurUS:   float64(dur) / float64(time.Microsecond),
	}
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, s)
	l.t.mu.Unlock()
}

// span opens a span and returns the lane of its children and the function
// that closes it.
func (l lane) span(name, cat string) (lane, func()) {
	if !l.recording() {
		return l, func() {}
	}
	id, start := l.t.nextID.Add(1), time.Now()
	return lane{t: l.t, tid: l.tid, parent: id}, func() { l.add(id, name, cat, start, time.Since(start), nil) }
}

// pair records a finished pair of a sweep that began at sweepStart, and
// its phases, from the times the engine reports for it.
func (l lane) pair(sweepStart time.Time, p *commuter.SweepPair) {
	if !l.recording() {
		return
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	id, start := l.t.nextID.Add(1), sweepStart.Add(ms(p.StartMS))
	l.add(id, p.Pair(), "pair", start, ms(p.ElapsedMS), map[string]any{
		"tests": p.Tests, "cached": p.Cached, "sat_calls": p.Solver.SatCalls,
	})
	child := lane{t: l.t, tid: l.tid, parent: id}
	for _, ph := range []struct {
		name string
		ms   float64
	}{{"analyze", p.Phases.AnalyzeMS}, {"testgen", p.Phases.TestgenMS}, {"check", p.Phases.CheckMS}} {
		if ph.ms > 0 { // phases run back to back in this order
			child.add(l.t.nextID.Add(1), ph.name, "phase", start, ms(ph.ms), nil)
			start = start.Add(ms(ph.ms))
		}
	}
}

// write renders the spans as a Chrome trace.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = obs.WriteChromeTrace(f, t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
