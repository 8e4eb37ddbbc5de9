package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"netoblivious/internal/obs"
)

// This file implements the ReplayEngine: the third execution engine,
// built on the paper's central determinism fact.  A static network-
// oblivious algorithm's communication at a fixed input size is a pure
// function of that size — so the superstep schedule (labels, fold
// degrees, message routing) can be recorded once, compiled into flat
// routing tables, and replayed on every later run as pure data movement:
// no goroutine per VP, no coroutine resumes, no barriers, no Trace.mu
// contention, and zero per-message allocation in steady state.

// Schedule is the compiled form of one program's run on M(v): per
// superstep, the sync label, the message total, the full fold-degree
// vector, and the message (src, dst) pairs as two columns sorted by
// (destination, source).  The sort makes the compiled form canonical:
// two compiles of the same program (on any engine, at any GOMAXPROCS)
// produce identical schedules, so replayed traces are deterministic
// byte for byte.
//
// A Schedule is immutable after compilation and safe to share across
// concurrent replays.
type Schedule struct {
	v, logV int
	steps   []schedStep
}

type schedStep struct {
	label    int
	messages int64
	degree   []int64   // logV+1 entries; view into one schedule-owned backing
	pairs    *PairList // one (dst, src)-sorted column pair; empty without messages
}

// V returns the number of virtual processors the schedule was compiled
// for, and NumSupersteps the superstep count — the identity a replay
// validates against its key.
func (s *Schedule) V() int             { return s.v }
func (s *Schedule) NumSupersteps() int { return len(s.steps) }

// CompileSchedule compiles tr — a trace recorded with RecordMessages —
// into a replayable Schedule.  It is exported for tests and offline
// tooling; the ReplayEngine compiles on first miss automatically.
// Compilation must be byte-deterministic: the sharded-nobld roadmap
// item keys cache entries by compiled schedules, so two compiles of
// the same trace must agree exactly.
//
//nob:deterministic
func CompileSchedule(tr *Trace) (*Schedule, error) {
	s := &Schedule{v: tr.V, logV: tr.LogV, steps: make([]schedStep, len(tr.Steps))}
	degBacking := make([]int64, len(tr.Steps)*(tr.LogV+1))
	// offs is the counting sort's per-step scratch: bucket offsets by
	// destination VP, reused across supersteps.
	var offs []int32
	for i := range tr.Steps {
		rec := &tr.Steps[i]
		if rec.Messages > 0 && rec.Pairs.Len() == 0 {
			return nil, fmt.Errorf("core: CompileSchedule: superstep %d has %d messages but no recorded pairs; compile from a RecordMessages trace", i, rec.Messages)
		}
		st := &s.steps[i]
		st.label = rec.Label
		st.messages = rec.Messages
		st.degree = degBacking[: tr.LogV+1 : tr.LogV+1]
		degBacking = degBacking[tr.LogV+1:]
		copy(st.degree, rec.Degree)

		msgs := rec.Pairs.Len()
		if msgs == 0 {
			st.pairs = &PairList{}
			continue
		}
		// Counting sort by destination: one pass to count, prefix-sum to
		// bucket starts, one pass to place (advancing each start to its
		// bucket's end), then an ascending source sort inside each
		// destination bucket for full canonical order.
		if offs == nil {
			offs = make([]int32, tr.V+1)
		} else {
			clear(offs)
		}
		for _, dst := range rec.Pairs.All() {
			offs[dst+1]++
		}
		for d := 0; d < tr.V; d++ {
			offs[d+1] += offs[d]
		}
		cols := make([]int32, 2*msgs)
		srcCol, dstCol := cols[:msgs:msgs], cols[msgs:]
		for src, dst := range rec.Pairs.All() {
			at := offs[dst]
			offs[dst]++
			srcCol[at] = src
			dstCol[at] = dst
		}
		lo := int32(0)
		for d := 0; d < tr.V; d++ {
			hi := offs[d]
			if hi-lo > 1 {
				slices.Sort(srcCol[lo:hi])
			}
			lo = hi
		}
		st.pairs = pairListOver(srcCol, dstCol)
	}
	return s, nil
}

// Replay reconstructs the recorded trace: per superstep it copies the
// compiled degree vector (callers own their Trace) and restates the
// label and message count.  When record is set, the step's Pairs share
// the schedule's immutable columns; no copy is ever made.
func (s *Schedule) Replay(record bool) *Trace {
	return s.replay(record, nil)
}

// replay is Replay with an optional probe: non-nil, it records one
// "engine"-category span per replayed superstep.  The nil path is the
// exported Replay and stays within the warm-replay allocation budget.
func (s *Schedule) replay(record bool, probe *obs.Probe) *Trace {
	tr := &Trace{V: s.v, LogV: s.logV, Steps: make([]StepRec, len(s.steps))}
	degBacking := make([]int64, len(s.steps)*(s.logV+1))
	for i := range s.steps {
		st := &s.steps[i]
		stepStart := probe.Now()
		deg := degBacking[: s.logV+1 : s.logV+1]
		degBacking = degBacking[s.logV+1:]
		copy(deg, st.degree)
		rec := &tr.Steps[i]
		rec.Label = st.label
		rec.Degree = deg
		rec.Messages = st.messages
		if record && st.pairs.Len() > 0 {
			rec.Pairs = st.pairs
		}
		if probe != nil {
			probe.Span("engine", "superstep "+strconv.Itoa(i), 0, stepStart, map[string]any{
				"label":    st.label,
				"messages": st.messages,
				"replayed": true,
			})
		}
	}
	return tr
}

// replayTo is Replay in streaming form: every superstep record is
// handed to the sink as it is reconstructed, so a warm replay of an
// arbitrarily long schedule runs in O(largest superstep) memory.  The
// returned Trace is the metadata-only form of a streaming run.  Pair
// records are aliases of the schedule's immutable compiled columns —
// shared, never copied, and safe for sinks that Release what they own.
func (s *Schedule) replayTo(sink TraceSink, record bool, probe *obs.Probe) (*Trace, error) {
	if err := sink.BeginTrace(s.v, s.logV); err != nil {
		return nil, fmt.Errorf("core: trace sink: %w", err)
	}
	meta := &Trace{V: s.v, LogV: s.logV, sink: sink}
	var runErr error
	for i := range s.steps {
		st := &s.steps[i]
		stepStart := probe.Now()
		deg := make([]int64, s.logV+1)
		copy(deg, st.degree)
		rec := StepRec{Label: st.label, Degree: deg, Messages: st.messages}
		if record && st.pairs.Len() > 0 {
			rec.Pairs = st.pairs.alias()
		}
		if err := sink.WriteStep(rec); err != nil {
			runErr = fmt.Errorf("core: trace sink: %w", err)
			break
		}
		if probe != nil {
			probe.Span("engine", "superstep "+strconv.Itoa(i), 0, stepStart, map[string]any{
				"label":    st.label,
				"messages": st.messages,
				"replayed": true,
			})
		}
		meta.flushed++
		meta.flushedMsgs += rec.Messages
	}
	if eerr := sink.EndTrace(runErr); eerr != nil && runErr == nil {
		runErr = fmt.Errorf("core: trace sink: %w", eerr)
	}
	if runErr != nil {
		return nil, runErr
	}
	return meta, nil
}

// ScheduleStore is a bounded, single-flight cache of compiled schedules,
// keyed like the trace store ("algorithm/n=N@replay" plus a per-run
// RunOpt sequence suffix).  One process-wide store (SharedScheduleStore)
// backs every keyed ReplayEngine whose Store field is nil.
type ScheduleStore struct {
	store *Store[*Schedule]
}

// DefaultScheduleCapacity bounds the shared schedule store: schedules
// are a compressed form of recorded traces, so a few hundred of them fit
// comfortably where the same number of live traces would not.
const DefaultScheduleCapacity = 256

// NewScheduleStore returns an empty store with the default capacity.
func NewScheduleStore() *ScheduleStore {
	return NewBoundedScheduleStore(DefaultScheduleCapacity)
}

// NewBoundedScheduleStore returns an empty store retaining at most
// capacity compiled schedules under LRU eviction (0 = unbounded).
func NewBoundedScheduleStore(capacity int) *ScheduleStore {
	return &ScheduleStore{store: NewBoundedStore[*Schedule](capacity)}
}

var processScheduleStore = NewScheduleStore()

// SharedScheduleStore returns the process-wide schedule store used by
// keyed ReplayEngines with a nil Store.
func SharedScheduleStore() *ScheduleStore { return processScheduleStore }

// Stats returns the store's cumulative hit/miss/eviction counters.
func (ss *ScheduleStore) Stats() StoreStats { return ss.store.Stats() }

// Len returns the number of cached schedules (completed or in flight).
func (ss *ScheduleStore) Len() int { return ss.store.Len() }

// Capacity returns the LRU bound (0 = unbounded).
func (ss *ScheduleStore) Capacity() int { return ss.store.Capacity() }

// Forget drops one schedule, forcing recompilation on next use.
func (ss *ScheduleStore) Forget(key string) bool { return ss.store.Forget(key) }

// ReplayEngine executes compiled schedules.  On the first run for a Key
// it executes the program once, instrumented, on the Compile engine and
// compiles the recorded trace; every later run for the Key replays the
// compiled schedule allocation-free without executing the program at
// all.  That is sound exactly for the algorithms the paper's optimality
// theory covers — static programs, whose communication depends only on
// the input size — and it is the caller's responsibility (discharged by
// the alg registry's determinism contract) to key only such programs.
//
// Because the program body is skipped on a warm replay, side effects of
// VP code (e.g. payload output buffers) are produced only by the cold
// compile run.  The replayed Trace, however, is byte-for-byte identical
// on cold and warm paths, and trace-equivalent to every other engine.
//
// The zero value is unkeyed: with no program identity to memoize under,
// it degrades gracefully by executing directly on the Compile engine,
// so ad-hoc core.RunOpt callers can still select "replay" and lose
// nothing but the caching.
type ReplayEngine struct {
	// Key identifies the program being run.  The alg registry sets it
	// automatically (KeyedReplay) for every registered algorithm; direct
	// core users key their own static programs.  The zero Key disables
	// schedule caching.
	Key TraceKey
	// Store is the schedule cache; nil uses SharedScheduleStore().
	Store *ScheduleStore
	// Compile is the engine used for the instrumented first run (and for
	// direct execution when unkeyed); nil uses BlockEngine{}.
	Compile Engine

	// seq numbers the RunOpt invocations of one algorithm run, so an
	// algorithm that runs several machines (e.g. a v=1 probe before the
	// real machine) gets one schedule per invocation instead of aliasing
	// them all on one key.  KeyedReplay installs a fresh counter per
	// algorithm run; nil means every invocation is number 0.
	seq *atomic.Int32
}

// Name implements Engine.
func (ReplayEngine) Name() string { return "replay" }

func (ReplayEngine) sealed() {}

// compileEngine resolves the engine used for instrumented compile runs.
func (e ReplayEngine) compileEngine() (Engine, error) {
	c := e.Compile
	if c == nil {
		return BlockEngine{}, nil
	}
	switch c.(type) {
	case ReplayEngine, *ReplayEngine:
		return nil, errors.New("core: ReplayEngine cannot compile through another ReplayEngine")
	}
	return c, nil
}

// KeyedReplay prepares eng for one algorithm run: when eng is a
// ReplayEngine it returns a copy keyed by (algorithm, n) with a fresh
// RunOpt sequence counter; any other engine passes through unchanged.
// The alg registry calls this on every Algorithm.Run, which is how
// `-engine replay` works for every registered algorithm with no
// per-algorithm code.
func KeyedReplay(eng Engine, algorithm string, n int) Engine {
	var re ReplayEngine
	switch e := eng.(type) {
	case ReplayEngine:
		re = e
	case *ReplayEngine:
		re = *e
	default:
		return eng
	}
	re.Key = TraceKey{Algorithm: algorithm, N: n, Engine: re.Name()}
	re.seq = new(atomic.Int32)
	return re
}

// scheduleKey renders the store key for one RunOpt invocation:
// "algorithm/n=N@replay#idx".  Built by hand — this is on the warm
// per-run path and must stay within the replay allocation budget.
//
//nob:hotpath
func scheduleKey(k TraceKey, idx int) string {
	b := make([]byte, 0, len(k.Algorithm)+len(k.Engine)+16)
	b = append(b, k.Algorithm...)
	b = append(b, "/n="...)
	b = strconv.AppendInt(b, int64(k.N), 10)
	b = append(b, '@')
	b = append(b, k.Engine...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(idx), 10)
	return string(b)
}

// isCancellation reports whether err describes the caller's cancelled
// context rather than the computation — the class of outcomes that must
// never stay memoized (harness.IsCancellation, restated locally because
// core sits below the harness).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runReplay is the RunOpt path for the ReplayEngine.  It never builds a
// machine: a warm run touches the schedule store and the compiled
// tables, nothing else.
func runReplay[P any](v int, prog Program[P], opts Options, re ReplayEngine) (*Trace, error) {
	compile, err := re.compileEngine()
	if err != nil {
		return nil, err
	}
	if re.Key == (TraceKey{}) {
		// Unkeyed: no identity to cache under — run directly.
		o := opts
		o.Engine = compile
		return RunOpt(v, prog, o)
	}
	idx := 0
	if re.seq != nil {
		idx = int(re.seq.Add(1)) - 1
	}
	store := re.Store
	if store == nil {
		store = processScheduleStore
	}
	key := scheduleKey(re.Key, idx)
	// Peek first: the warm path must not pay the compute-closure
	// allocation of Get.
	sched, err, ok := store.store.Peek(key)
	if !ok {
		sched, err = store.store.Get(key, func() (*Schedule, error) {
			// The instrumented compile run inherits the probe, so a cold
			// replay's timeline shows the compile engine's supersteps
			// under the schedule-compile span.
			o := Options{RecordMessages: true, Engine: compile, Context: opts.Context, Probe: opts.Probe}
			compileStart := opts.Probe.Now()
			tr, rerr := RunOpt(v, prog, o)
			if rerr != nil {
				return nil, rerr
			}
			s, cerr := CompileSchedule(tr)
			if cerr == nil && opts.Probe != nil {
				opts.Probe.Span("compiler", "schedule-compile", 0, compileStart, map[string]any{
					"key": key, "v": v, "supersteps": len(s.steps),
				})
			}
			return s, cerr
		})
	}
	if err != nil {
		if isCancellation(err) {
			// The compile died of a cancelled context; that outcome belongs
			// to the cancelled caller, not the key (same discipline as the
			// harness trace store).
			store.store.ForgetIf(key, func(_ *Schedule, e error) bool { return isCancellation(e) })
		}
		return nil, err
	}
	if sched.v != v {
		return nil, fmt.Errorf("core: replay key %q compiled for v=%d but run requested v=%d; the keyed program must be static (one machine size per key)", key, sched.v, v)
	}
	if opts.Context != nil {
		if cerr := opts.Context.Err(); cerr != nil {
			return nil, fmt.Errorf("core: run cancelled: %w", cerr)
		}
	}
	if opts.Sink != nil {
		return sched.replayTo(opts.Sink, opts.RecordMessages, opts.Probe)
	}
	return sched.replay(opts.RecordMessages, opts.Probe), nil
}
