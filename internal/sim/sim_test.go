package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValueReadsEpoch(t *testing.T) {
	var c Clock
	if !c.Now().Equal(Epoch) {
		t.Fatalf("zero clock = %v, want %v", c.Now(), Epoch)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(Epoch.Add(3 * time.Second))
	c.AdvanceTo(c.Now().Add(500 * time.Millisecond))
	if got, want := c.Now().Sub(Epoch), 3500*time.Millisecond; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
	if got := c.Now().Sub(Epoch.Add(time.Second)); got != 2500*time.Millisecond {
		t.Fatalf("elapsed since 1s = %v, want 2.5s", got)
	}
}

func TestClockAdvanceToNeverRewinds(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(Epoch.Add(10 * time.Second))
	c.AdvanceTo(Epoch.Add(2 * time.Second))
	if got := c.Now().Sub(Epoch); got != 10*time.Second {
		t.Fatalf("clock rewound to %v", got)
	}
	c.AdvanceTo(Epoch.Add(15 * time.Second))
	if got := c.Now().Sub(Epoch); got != 15*time.Second {
		t.Fatalf("AdvanceTo forward = %v, want 15s", got)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	c := NewClock()
	s := NewScheduler(c)
	var got []int
	s.After(3*time.Second, func(*Scheduler) { got = append(got, 3) })
	s.After(1*time.Second, func(*Scheduler) { got = append(got, 1) })
	s.After(2*time.Second, func(*Scheduler) { got = append(got, 2) })
	for s.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("event order = %v, want [1 2 3]", got)
	}
	if c.Now().Sub(Epoch) != 3*time.Second {
		t.Fatalf("clock after drain = %v, want 3s", c.Now().Sub(Epoch))
	}
}

func TestSchedulerFIFOTiebreak(t *testing.T) {
	s := NewScheduler(NewClock())
	var got []int
	at := Epoch.Add(time.Second)
	for i := 0; i < 5; i++ {
		i := i
		s.At(at, func(*Scheduler) { got = append(got, i) })
	}
	for s.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	c := NewClock()
	s := NewScheduler(c)
	ran := 0
	s.After(1*time.Minute, func(*Scheduler) { ran++ })
	s.After(5*time.Minute, func(*Scheduler) { ran++ })
	s.RunUntil(Epoch.Add(2 * time.Minute))
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if got := c.Now().Sub(Epoch); got != 2*time.Minute {
		t.Fatalf("clock = %v, want exactly 2m", got)
	}
	// The later event stays queued: one more step runs it.
	if !s.Step() || ran != 2 || s.Step() {
		t.Fatalf("after RunUntil: want exactly the 5m event queued, ran %d", ran)
	}
}

func TestSchedulerEvery(t *testing.T) {
	c := NewClock()
	s := NewScheduler(c)
	ticks := 0
	s.Every(15*time.Second, func(*Scheduler) bool {
		ticks++
		return true
	})
	s.RunUntil(Epoch.Add(16 * time.Minute))
	// 16 min / 15 s = 64 ticks, first at t=15s, last at t=960s inclusive.
	if ticks != 64 {
		t.Fatalf("ticks = %d, want 64", ticks)
	}
}

func TestSchedulerEveryStops(t *testing.T) {
	s := NewScheduler(NewClock())
	ticks := 0
	s.Every(time.Second, func(*Scheduler) bool {
		ticks++
		return ticks < 3
	})
	for s.Step() {
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestSchedulerEventReArming(t *testing.T) {
	c := NewClock()
	s := NewScheduler(c)
	depth := 0
	var rearm func(*Scheduler)
	rearm = func(sch *Scheduler) {
		depth++
		if depth < 4 {
			sch.After(time.Second, rearm)
		}
	}
	s.After(time.Second, rearm)
	for s.Step() {
	}
	if depth != 4 {
		t.Fatalf("depth = %d, want 4", depth)
	}
	if c.Now().Sub(Epoch) != 4*time.Second {
		t.Fatalf("clock = %v, want 4s", c.Now().Sub(Epoch))
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	c1, c2 := r.Fork(1), r.Fork(2)
	if c1.Seed() == c2.Seed() {
		t.Fatal("forked children share a seed")
	}
	if c1.Seed() == r.Seed() || c2.Seed() == r.Seed() {
		t.Fatal("child seed equals parent seed")
	}
	// Forking must be a pure function of (parent seed, label).
	again := NewRNG(7).Fork(1)
	if again.Seed() != c1.Seed() {
		t.Fatal("Fork is not deterministic")
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(1)
	f := func(base, spread uint16) bool {
		b, s := int64(base), int64(spread)
		v := r.Jitter(b, s)
		if v < 0 {
			return false
		}
		if s <= 0 {
			return v == b
		}
		return v >= max(0, b-s/2) && v < b+s/2+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRNGBytesLength pins that Fill writes exactly len(dst) bytes,
// including a tail shorter than one generator word: a window of a
// larger buffer leaves the bytes after it untouched.
func TestRNGBytesLength(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{0, 1, 17, 4096} {
		buf := make([]byte, n+8)
		for i := range buf {
			buf[i] = 0xa5
		}
		r.Fill(buf[:n])
		for i, b := range buf[n:] {
			if b != 0xa5 {
				t.Fatalf("Fill(%d bytes) wrote byte %d past the end", n, i)
			}
		}
	}
}
