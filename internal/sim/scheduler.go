package sim

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback. The callback receives the scheduler so
// it can re-arm itself (the idiom used by periodic pollers).
type Event struct {
	At time.Time
	Fn func(*Scheduler)

	index int // heap bookkeeping
	seq   int // FIFO tiebreak for events at the same instant
}

// Scheduler is a time-ordered event queue bound to a Clock. Running the
// scheduler advances the clock to each event's instant in order. It is
// the backbone of every "background process" in the simulation, e.g.
// keep-alive polling while a client is idle.
type Scheduler struct {
	Clock *Clock
	queue eventQueue
	seq   int
}

// NewScheduler returns a scheduler driving the given clock.
func NewScheduler(c *Clock) *Scheduler {
	return &Scheduler{Clock: c}
}

// At schedules fn to run at instant t. Events scheduled for an instant
// earlier than the current clock run as soon as the scheduler is next
// stepped, at the current clock time (time never rewinds).
func (s *Scheduler) At(t time.Time, fn func(*Scheduler)) {
	s.seq++
	heap.Push(&s.queue, &Event{At: t, Fn: fn, seq: s.seq})
}

// After schedules fn to run d after the current clock instant.
func (s *Scheduler) After(d time.Duration, fn func(*Scheduler)) {
	s.At(s.Clock.Now().Add(d), fn)
}

// Every schedules fn to run periodically with the given interval,
// starting one interval from now, until the scheduler stops being run
// or until fn returns false.
func (s *Scheduler) Every(interval time.Duration, fn func(*Scheduler) bool) {
	var tick func(*Scheduler)
	tick = func(sch *Scheduler) {
		if fn(sch) {
			sch.After(interval, tick)
		}
	}
	s.After(interval, tick)
}

// Step runs the single earliest event, advancing the clock to its
// instant. It reports whether an event was run.
func (s *Scheduler) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*Event)
	s.Clock.AdvanceTo(ev.At)
	ev.Fn(s)
	return true
}

// RunUntil runs all events with instant <= t in order, then advances the
// clock to exactly t. Events scheduled beyond t remain queued.
func (s *Scheduler) RunUntil(t time.Time) {
	for s.queue.Len() > 0 && !s.queue[0].At.After(t) {
		s.Step()
	}
	s.Clock.AdvanceTo(t)
}

// eventQueue implements heap.Interface ordered by (At, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].At.Equal(q[j].At) {
		return q[i].At.Before(q[j].At)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
