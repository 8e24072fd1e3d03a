package sim

import (
	"errors"
	"fmt"
)

// Engine schedules and dispatches events in virtual-time order.
type Engine interface {
	// Schedule enqueues an event. Scheduling an event earlier than the
	// current time is an error surfaced by Run.
	Schedule(e Event)

	// Run dispatches events until the queue drains, an error occurs, or the
	// engine is terminated. It may be called repeatedly: each call continues
	// from the current virtual time.
	Run() error

	// CurrentTime returns the virtual time of the most recently dispatched
	// event (0 before any event runs).
	CurrentTime() VTime

	// Terminate makes Run return after the in-flight event completes. The
	// remaining queue is preserved, so Run can resume.
	Terminate()

	// EventCount returns the total number of events dispatched so far.
	EventCount() uint64
}

// queuedEvent decorates an event with its ordering key — firing time and
// secondary flag cached at enqueue so heap comparisons never call back into
// the Event interface, plus an insertion sequence number that makes the heap
// order a deterministic total order: (time, secondary flag, sequence).
type queuedEvent struct {
	event     Event
	time      VTime
	seq       uint64
	secondary bool
}

// SerialEngine is a single-goroutine Engine. All simulated components run in
// the goroutine that calls Run, so they need no internal locking.
type SerialEngine struct {
	queue      eventQueue
	now        VTime
	seq        uint64
	dispatched uint64
	terminated bool
	hooks      []Hook
	started    bool
	highWater  int
	// cohort is the reused buffer for same-timestamp batch dispatch: Run pops
	// every primary event sharing the minimum timestamp in one pass, then
	// dispatches them without re-sifting the heap between events. cohortLeft
	// counts the not-yet-dispatched tail so Pending stays exact mid-batch.
	cohort     []queuedEvent
	cohortLeft int
	// free is the funcEvent recycling pool for ScheduleFunc. Single-goroutine
	// by the engine contract, so a plain slice suffices (and a shared
	// sync.Pool would violate no-goroutine-in-sim anyway).
	free []*funcEvent
}

// NewSerialEngine returns an empty engine at virtual time 0.
func NewSerialEngine() *SerialEngine {
	return &SerialEngine{}
}

var _ Engine = (*SerialEngine)(nil)

// ErrPastEvent is wrapped by Run's error when an event was scheduled in the
// virtual past.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Schedule enqueues e.
//
//triosim:hotpath
func (eng *SerialEngine) Schedule(e Event) {
	eng.seq++
	eng.queue.push(queuedEvent{
		event:     e,
		time:      e.Time(),
		seq:       eng.seq,
		secondary: e.IsSecondary(),
	})
	if p := eng.queue.len() + eng.cohortLeft; p > eng.highWater {
		eng.highWater = p
	}
}

// schedulePooled enqueues fn wrapped in a recycled (or new) funcEvent. The
// event returns to the free list after its dispatch completes.
func (eng *SerialEngine) schedulePooled(t VTime, fn func(now VTime) error,
	secondary bool) {

	var fe *funcEvent
	if n := len(eng.free); n > 0 {
		fe = eng.free[n-1]
		eng.free[n-1] = nil
		eng.free = eng.free[:n-1]
	} else {
		fe = &funcEvent{}
	}
	fe.EventBase = EventBase{EventTime: t, Secondary: secondary}
	fe.fn = fn
	fe.pooled = true
	eng.Schedule(fe)
}

// recycle returns a dispatched pooled event to the free list. Hooks have
// already run; by contract neither hooks nor handlers retain the event.
func (eng *SerialEngine) recycle(e Event) {
	fe, ok := e.(*funcEvent)
	if !ok || !fe.pooled {
		return
	}
	fe.pooled = false
	fe.fn = nil
	eng.free = append(eng.free, fe)
}

// CurrentTime returns the time of the last dispatched event.
func (eng *SerialEngine) CurrentTime() VTime { return eng.now }

// EventCount returns the number of events dispatched so far.
func (eng *SerialEngine) EventCount() uint64 { return eng.dispatched }

// Terminate stops Run after the current event.
func (eng *SerialEngine) Terminate() { eng.terminated = true }

// Pending returns the number of events waiting to be dispatched, including
// any same-timestamp cohort events popped from the heap but not yet run.
func (eng *SerialEngine) Pending() int { return eng.queue.len() + eng.cohortLeft }

// QueueHighWater returns the largest Pending value observed so far — the
// peak number of events simultaneously waiting in the engine.
func (eng *SerialEngine) QueueHighWater() int { return eng.highWater }

// RegisterHook adds a hook invoked around every event dispatch.
func (eng *SerialEngine) RegisterHook(h Hook) {
	eng.hooks = append(eng.hooks, h)
}

// Run dispatches events until the queue is empty or Terminate is called.
//
// Events sharing the minimum timestamp are drained as a batch: when the head
// of the queue is a primary event, every other primary event at the same time
// is popped in one pass (they are dispatched in seq order regardless, and any
// event a handler schedules for the same timestamp gets a higher seq, so it
// sorts after the whole batch — the cohort is exactly the prefix of the total
// order either way). Secondary events are never batched: a secondary handler
// may schedule a primary event at the current time, which must precede the
// remaining secondaries.
//
//triosim:hotpath
func (eng *SerialEngine) Run() error {
	eng.terminated = false
	for eng.queue.len() > 0 && !eng.terminated {
		qe := eng.queue.pop()
		if eng.started && qe.time < eng.now {
			return fmt.Errorf("%w: event at %v, now %v", //triosim:nolint hotpath-alloc -- cold error path: a past-dated event aborts the run
				ErrPastEvent, qe.time, eng.now)
		}
		eng.started = true
		eng.now = qe.time

		eng.cohort = append(eng.cohort[:0], qe)
		if !qe.secondary {
			for eng.queue.len() > 0 {
				head := eng.queue.peek()
				if head.time != qe.time || head.secondary {
					break
				}
				eng.cohort = append(eng.cohort, eng.queue.pop()) //triosim:nolint hotpath-alloc -- amortized: the cohort buffer grows to the largest batch once, then is re-sliced
			}
		}

		for i := range eng.cohort {
			eng.cohortLeft = len(eng.cohort) - i - 1
			e := eng.cohort[i].event
			eng.cohort[i] = queuedEvent{}
			eng.dispatched++

			for _, h := range eng.hooks {
				h.Func(HookCtx{Pos: HookPosBeforeEvent, Now: eng.now, Item: e})
			}
			if err := dispatch(e); err != nil {
				eng.requeueCohort(i + 1)
				return err
			}
			for _, h := range eng.hooks {
				h.Func(HookCtx{Pos: HookPosAfterEvent, Now: eng.now, Item: e})
			}
			eng.recycle(e)

			if eng.terminated && i+1 < len(eng.cohort) {
				eng.requeueCohort(i + 1)
				break
			}
		}
		eng.cohortLeft = 0
	}
	return nil
}

// requeueCohort pushes the undispatched tail of the current cohort back onto
// the heap so Terminate and handler errors preserve the queue for a later
// Run. Original sequence numbers are kept, so resumed dispatch order is
// unchanged.
func (eng *SerialEngine) requeueCohort(from int) {
	for i := from; i < len(eng.cohort); i++ {
		eng.queue.push(eng.cohort[i])
		eng.cohort[i] = queuedEvent{}
	}
	eng.cohortLeft = 0
}

func dispatch(e Event) error {
	h := e.Handler()
	if h == nil {
		return fmt.Errorf("sim: event at %v has nil handler", e.Time())
	}
	return h.Handle(e)
}
